package httpx

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hbm2ecc/internal/resilience"
)

// retryClient returns a client whose backoff is fast enough for tests
// (millisecond-scale) but still exercises the real policy machinery.
func retryClient(attempts int) *Client {
	c := NewClient(5 * time.Second)
	c.Retry = resilience.NewRetryPolicy(attempts, 0.001, 0.01, 1)
	return c
}

func TestRetryRidesOutTransientServerErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	var out struct {
		OK bool `json:"ok"`
	}
	if err := retryClient(8).PostJSON(context.Background(), srv.URL, map[string]int{"x": 1}, &out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 3 {
		t.Fatalf("ok=%v after %d hits, want success on attempt 3", out.OK, hits.Load())
	}
}

// TestRetriesAreCounted: every retry a Client makes, whoever owns it
// (cluster workers, fleet agents), lands in httpx_client_retries_total.
func TestRetriesAreCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "always down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	before := mClientRetries.Value()
	if err := retryClient(3).GetJSON(context.Background(), srv.URL, nil); err == nil {
		t.Fatal("dead server answered")
	}
	if got := mClientRetries.Value() - before; got != 3 {
		t.Fatalf("httpx_client_retries_total rose by %d, want 3", got)
	}
}

func TestRetryNeverRepeatsClientErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad frame", http.StatusUnprocessableEntity)
	}))
	defer srv.Close()

	err := retryClient(8).PostJSON(context.Background(), srv.URL, map[string]int{"x": 1}, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 StatusError", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("4xx was retried: %d hits", hits.Load())
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "always down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	err := retryClient(3).GetJSON(context.Background(), srv.URL, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want 500 StatusError", err)
	}
	// MaxAttempts=3 admits attempts 0,1,2 then gives up: 4 requests total
	// (NextDelay(0..2) succeed, NextDelay(3) refuses).
	if hits.Load() != 4 {
		t.Fatalf("%d requests against a dead server, want 4", hits.Load())
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()

	c := NewClient(5 * time.Second)
	c.Retry = resilience.NewRetryPolicy(100, 0.05, 1.0, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.GetJSON(ctx, srv.URL, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled retry loop ran %v", elapsed)
	}
}

func TestRetryNilPolicyIsSingleShot(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	if err := NewClient(5*time.Second).GetJSON(context.Background(), srv.URL, nil); err == nil {
		t.Fatal("want error")
	}
	if hits.Load() != 1 {
		t.Fatalf("nil-policy client sent %d requests, want 1", hits.Load())
	}
}

func TestRetryableClassification(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{&StatusError{Code: 500}, true},
		{&StatusError{Code: 503}, true},
		{&StatusError{Code: 429}, true},
		{&StatusError{Code: 400}, false},
		{&StatusError{Code: 404}, false},
		{&StatusError{Code: 422}, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{errors.New("dial tcp: connection refused"), true},
		{fmt.Errorf("httpx: decoding response: %w", errors.New("bad json")), true},
	} {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
