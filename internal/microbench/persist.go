package microbench

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"hbm2ecc/internal/hbm2"
)

// jsonRecord is the on-disk form of a Record: payloads as hex strings so
// campaign logs stay compact and diff-able.
type jsonRecord struct {
	Time      float64 `json:"t"`
	WritePass int     `json:"w"`
	ReadPass  int     `json:"r"`
	Entry     int64   `json:"e"`
	Expected  string  `json:"exp"`
	Got       string  `json:"got"`
}

// jsonLog is the on-disk form of a Log.
type jsonLog struct {
	Pattern   int          `json:"pattern"`
	StartTime float64      `json:"start"`
	EndTime   float64      `json:"end"`
	Discarded bool         `json:"discarded"`
	Records   []jsonRecord `json:"records"`
}

func (l *Log) toJSON() jsonLog {
	out := jsonLog{
		Pattern:   int(l.Pattern),
		StartTime: l.StartTime,
		EndTime:   l.EndTime,
		Discarded: l.Discarded,
		Records:   make([]jsonRecord, 0, len(l.Records)),
	}
	for _, r := range l.Records {
		out.Records = append(out.Records, jsonRecord{
			Time: r.Time, WritePass: r.WritePass, ReadPass: r.ReadPass, Entry: r.Entry,
			Expected: hex.EncodeToString(r.Expected[:]),
			Got:      hex.EncodeToString(r.Got[:]),
		})
	}
	return out
}

func logFromJSON(in jsonLog) (*Log, error) {
	log := &Log{
		Pattern:   PatternKind(in.Pattern),
		StartTime: in.StartTime,
		EndTime:   in.EndTime,
		Discarded: in.Discarded,
	}
	for i, jr := range in.Records {
		var rec Record
		rec.Time, rec.WritePass, rec.ReadPass, rec.Entry = jr.Time, jr.WritePass, jr.ReadPass, jr.Entry
		if err := decodeHex32(jr.Expected, &rec.Expected); err != nil {
			return nil, fmt.Errorf("microbench: record %d expected: %w", i, err)
		}
		if err := decodeHex32(jr.Got, &rec.Got); err != nil {
			return nil, fmt.Errorf("microbench: record %d got: %w", i, err)
		}
		log.Records = append(log.Records, rec)
	}
	return log, nil
}

// MarshalJSON encodes the log in the compact hex-payload on-disk form,
// so campaign checkpoint cells and -logs files stay small and diff-able.
func (l *Log) MarshalJSON() ([]byte, error) { return json.Marshal(l.toJSON()) }

// UnmarshalJSON decodes the on-disk form strictly: unknown fields and
// malformed payloads are refused.
func (l *Log) UnmarshalJSON(b []byte) error {
	var in jsonLog
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return err
	}
	parsed, err := logFromJSON(in)
	if err != nil {
		return err
	}
	*l = *parsed
	return nil
}

// WriteJSON writes the log as one JSON document.
func (l *Log) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(l.toJSON())
}

// ReadJSON parses one JSON log document.
func ReadJSON(r io.Reader) (*Log, error) {
	var l Log
	if err := json.NewDecoder(r).Decode(&l); err != nil {
		return nil, err
	}
	return &l, nil
}

func decodeHex32(s string, out *[hbm2.EntryBytes]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(b) != hbm2.EntryBytes {
		return fmt.Errorf("payload length %d, want %d", len(b), hbm2.EntryBytes)
	}
	copy(out[:], b)
	return nil
}

// WriteLogs writes a campaign (one JSON log per line) to path.
func WriteLogs(path string, logs []*Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, l := range logs {
		if err := l.WriteJSON(w); err != nil {
			return err
		}
	}
	return w.Flush()
}

// ReadLogs reads a campaign written by WriteLogs.
func ReadLogs(path string) ([]*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var logs []*Log
	for {
		var l Log
		if err := dec.Decode(&l); err == io.EOF {
			return logs, nil
		} else if err != nil {
			return nil, err
		}
		logs = append(logs, &l)
	}
}
