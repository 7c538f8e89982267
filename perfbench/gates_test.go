package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeDaemon answers issue and trace like odcfpd, except that buyers named
// "bad-*" get a degraded verify and the copy of "leaked" traces to the
// wrong buyer.
func fakeDaemon() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/issue"):
			buyer := r.URL.Query().Get("buyer")
			verified := "equivalent"
			if strings.HasPrefix(buyer, "bad-") {
				verified = "degraded"
			}
			w.Header().Set("X-Odcfp-Verified", verified)
			w.Header().Set("X-Odcfp-Buyer", buyer)
			w.Write([]byte("copy of " + buyer))
		case strings.HasSuffix(r.URL.Path, "/trace"):
			body, _ := io.ReadAll(r.Body)
			exact := strings.TrimPrefix(string(body), "copy of ")
			if exact == "leaked" {
				exact = "someone-else"
			}
			json.NewEncoder(w).Encode(map[string]string{"exact": exact})
		default:
			http.NotFound(w, r)
		}
	}))
}

func TestGatesCountFailedOperations(t *testing.T) {
	srv := fakeDaemon()
	defer srv.Close()
	pool := [][]pooled{{
		{buyer: "alice", body: []byte("copy of alice")},
		{buyer: "leaked", body: []byte("copy of leaked")},
	}}
	tgt := &target{urls: []string{srv.URL}, digests: []string{"d0"}, pool: pool}
	good := []op{
		{kind: opIssue, buyer: "carol"},
		{kind: opTrace, buyer: "alice", copy: 0, due: time.Millisecond},
	}
	// A failed operation also ends its rung early, so each bad operation
	// comes last in a rung of its own.
	for _, tc := range []struct {
		bad  op
		want string
	}{
		{op{kind: opIssue, buyer: "bad-dave", due: 2 * time.Millisecond}, "degraded"},
		{op{kind: opTrace, buyer: "leaked", copy: 1, due: 2 * time.Millisecond}, "someone-else"},
	} {
		ops := append(append([]op(nil), good...), tc.bad)
		r, outs := runRung(context.Background(), 1000, ops, 1, time.Second, tgt.do)
		if r.Failed != 1 || r.Succeeded != 2 || r.Unsent != 0 {
			t.Fatalf("%s: failed %d succeeded %d unsent %d, want 1 2 0", tc.want, r.Failed, r.Succeeded, r.Unsent)
		}
		if outs[0].err != nil || outs[1].err != nil {
			t.Fatalf("good operations failed: %v, %v", outs[0].err, outs[1].err)
		}
		if err := outs[2].err; err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("bad operation not rejected for %q: %v", tc.want, err)
		}
		if r.passes(limitMS) {
			t.Fatal("a rung with a failed operation passed")
		}
	}
}

func TestIssueGate(t *testing.T) {
	h := http.Header{}
	h.Set("X-Odcfp-Buyer", "x")
	for _, label := range []string{"", "degraded", "Equivalent"} {
		h.Set("X-Odcfp-Verified", label)
		if checkIssue(http.StatusOK, h, "x") == nil {
			t.Errorf("verify label %q accepted", label)
		}
	}
	h.Set("X-Odcfp-Verified", "equivalent")
	if err := checkIssue(http.StatusOK, h, "x"); err != nil {
		t.Errorf("good issue rejected: %v", err)
	}
	if checkIssue(http.StatusServiceUnavailable, h, "x") == nil {
		t.Error("a 503 issue accepted")
	}
	if checkIssue(http.StatusOK, h, "y") == nil {
		t.Error("a copy minted for another buyer accepted")
	}
}

func TestTraceGate(t *testing.T) {
	if err := checkTrace(http.StatusOK, []byte(`{"exact":"x"}`), "x"); err != nil {
		t.Errorf("good trace rejected: %v", err)
	}
	for _, body := range []string{`{"exact":""}`, `{"exact":"y"}`, `not json`} {
		if checkTrace(http.StatusOK, []byte(body), "x") == nil {
			t.Errorf("trace body %s accepted", body)
		}
	}
}
