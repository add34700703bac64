// Command fleetd is the fleet health control plane: the coordinator
// side of the gpud-style split in internal/fleet, fed by simulated
// node agents from internal/fieldsim. It ingests Xid-style event
// reports over the wire protocol, tracks liveness through
// simulated-time leases, ranks nodes by predicted failure, and issues
// drain/retire commands — then reports the policy-quality ledger (SDCs
// avoided vs capacity lost) the simulation ground truth enables.
//
//	fleetd -addr 127.0.0.1:8455 -nodes 1000 -hours 720 -accel 10000
//	fleetd -once -nodes 200 -hours 240   # run the sim, print quality, exit
//
// Endpoints:
//
//	POST /v1/report       — node agent report ingest
//	GET  /v1/fleet        — ranked nodes + status counts (?top=N)
//	GET  /v1/fleet/events — recent events (?node=&xid=&limit=)
//	GET  /metrics         — Prometheus text (fleet_* families)
//	GET  /healthz         — liveness + fleet counts
//	GET  /spans           — span phase table (served by httpx for every daemon)
//
// The embedded simulation drives the coordinator over real loopback
// HTTP through fleet.Client — the same frames, validation, and
// error paths a remote agent would exercise. With -nodes 0 fleetd
// serves an empty coordinator for external agents instead.
//
// -probes N (with -nodes 0) adds N device probes: agents that run the
// paper's DRAM microbenchmark as a health check on a simulated
// beam-exposed device every 10s, one simulated hour per check, and
// scrub weak rows into retirement (see fleet.Probe). Their check
// phases show up under /spans.
//
//	fleetd -nodes 0 -probes 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"hbm2ecc/internal/core"
	"hbm2ecc/internal/fieldsim"
	"hbm2ecc/internal/fleet"
	"hbm2ecc/internal/httpx"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8455", "HTTP listen address (host:0 picks a free port, printed on startup)")
	nodes := flag.Int("nodes", 1000, "simulated fleet size (0 serves an empty coordinator for external agents)")
	hours := flag.Float64("hours", 720, "simulated deployment, hours")
	accel := flag.Float64("accel", 10_000, "soft-error acceleration factor (crash rate is never accelerated)")
	schemeName := flag.String("scheme", "NI:SEC-DED", "per-node ECC scheme (core.SchemeByName label)")
	seed := flag.Int64("seed", 2021, "simulation seed")
	dueBudget := flag.Int("due-budget", 32, "agent DUE budget per rolling window before it recommends draining")
	lease := flag.Float64("lease", 12, "coordinator liveness lease, simulated hours")
	once := flag.Bool("once", false, "run the simulation, print the result JSON, exit")
	stateDir := flag.String("state-dir", "", "durable state directory (snapshot + WAL); empty keeps the coordinator memory-only")
	probes := flag.Int("probes", 0, "device probes running the microbenchmark health check, one simulated hour per check (needs -nodes 0)")
	flag.Parse()
	if *probes < 0 || *probes > 0 && *nodes != 0 {
		fmt.Fprintln(os.Stderr, "fleetd: -probes needs -nodes 0: probes and the field simulation keep separate clocks")
		os.Exit(2)
	}

	scheme, err := core.SchemeByName(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}

	opts := fleet.CoordinatorOptions{
		LeaseHours: *lease,
		MaxNodes:   *nodes + *probes + 1024,
		StateDir:   *stateDir,
	}
	var coord *fleet.Coordinator
	if *stateDir != "" {
		coord, err = fleet.OpenCoordinator(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetd:", err)
			os.Exit(1)
		}
		rec := coord.Recovery()
		log.Printf("fleetd: durable state in %s: recovered %d nodes from snapshot, replayed %d/%d WAL records (sim clock %.1fh)",
			*stateDir, rec.SnapshotNodes, rec.WALApplied, rec.WALRecords, rec.SimHours)
	} else {
		coord = fleet.NewCoordinator(opts)
	}

	ctx, stop := httpx.SignalContext()
	defer stop()

	d, err := httpx.StartDaemon(ctx, "fleetd", *addr, coord.Handler(), fleet.MaxFrame)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
	if *probes > 0 {
		log.Printf("fleetd: coordinator for %d device probes on %s (one check = one simulated hour, every %s)",
			*probes, d.URL(), fleet.ProbeInterval)
	} else {
		log.Printf("fleetd: coordinator for %d simulated nodes on %s (scheme=%s hours=%.0f accel=%.0fx)",
			*nodes, d.URL(), scheme.Name(), *hours, *accel)
	}

	simDone := make(chan struct{})
	var res fieldsim.FleetResult
	var simErr error
	go func() {
		defer close(simDone)
		if *probes > 0 {
			runProbes(ctx, *probes, *seed, fleet.NewClient(d.URL(), 30*time.Second),
				fleet.AgentOptions{DUEBudget: *dueBudget}, *once)
			return
		}
		if *nodes <= 0 {
			return
		}
		cfg := fieldsim.FleetConfig{
			Scheme: scheme,
			Nodes:  *nodes,
			Hours:  *hours,
			Accel:  *accel,
			Seed:   *seed,
		}
		cfg.Agent.DUEBudget = *dueBudget
		// Agents report over real loopback HTTP: every frame crosses the
		// wire codec both ways.
		client := fleet.NewClient(d.URL(), 30*time.Second)
		res, simErr = fieldsim.RunFleet(ctx, cfg, client)
		if simErr != nil {
			if ctx.Err() != nil {
				return // interrupted mid-simulation; not an error
			}
			log.Printf("fleetd: simulation failed: %v", simErr)
			return
		}
		log.Printf("fleetd: simulated %d nodes x %.0fh: %d raw events (%d DCE / %d DUE / %d SDC), "+
			"%d reports, %d crashes (%d silent)",
			res.Nodes, res.Hours, res.RawEvents, res.DCE, res.DUE, res.SDC,
			res.Reports, res.Crashes, res.SilentCrashes)
		q := res.Quality
		log.Printf("fleetd: policy: avoided %d/%d SDCs (%.1f%%) for %.2f%% capacity (%d drains, %d retires)",
			q.SDCAvoided, q.SDCTotal, 100*q.AvoidedFrac, 100*q.CapacityLostFrac, q.Drained, q.Retired)
	}()

	// closeState checkpoints and closes the durability layer on a clean
	// shutdown (a kill -9 skips this — that is what the WAL is for).
	closeState := func() {
		if *stateDir == "" {
			return
		}
		if err := coord.Close(); err != nil {
			log.Printf("fleetd: closing durable state: %v", err)
		}
	}

	if *once {
		<-simDone
		stop()
		_ = d.Wait()
		closeState()
		if simErr != nil {
			os.Exit(1)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if *probes > 0 {
			_ = enc.Encode(coord.Fleet(*probes))
		} else {
			_ = enc.Encode(res)
		}
		return
	}

	<-ctx.Done()
	log.Print("fleetd: signal received, draining")
	if err := d.Wait(); err != nil {
		log.Printf("fleetd: %v", err)
	}
	<-simDone
	closeState()
	log.Print("fleetd: shut down cleanly")
}

// runProbes drives n device probes against the coordinator until ctx
// is done or the coordinator removes them; once runs a single check
// each.
func runProbes(ctx context.Context, n int, seed int64, rep fleet.Reporter, opts fleet.AgentOptions, once bool) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		p := fleet.NewProbe(fmt.Sprintf("probe-%d", i), seed+int64(i)*7919, rep, opts)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if once {
				_ = p.Check(ctx) // fails only when ctx is done, which ends the run anyway
				return
			}
			p.Run(ctx)
		}()
	}
	wg.Wait()
}
