package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"uexc/internal/debug"
	"uexc/internal/kernel"
)

// sessionScript is the canonical debug-session gauntlet: watch the
// kernel trapframe page, hit it, inspect, step, inspect again, and
// resume to exit.
func sessionScript() []debug.Command {
	tf := uint32(kernel.KStackTop - kernel.TrapframeSize)
	return []debug.Command{
		{Op: "watch-page", Addr: tf},
		{Op: "continue"},
		{Op: "inspect", Addr: tf, N: 8},
		{Op: "regs"},
		{Op: "step", N: 4},
		{Op: "inspect", Addr: tf, N: 8},
		{Op: "clear", Addr: tf},
		{Op: "continue"},
	}
}

func TestDebugSessionValidate(t *testing.T) {
	base := Request{Type: TypeDebugSession, Mode: "ultrix", Commands: sessionScript()}
	if err := base.Validate(100); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}

	bad := base
	bad.Commands = nil
	if err := bad.Validate(100); err == nil {
		t.Error("empty command script accepted")
	}
	bad = base
	bad.Commands = []debug.Command{{Op: "poke", Addr: 4}}
	if err := bad.Validate(100); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("bad op accepted: %v", err)
	}
	bad = base
	bad.Commands = make([]debug.Command, maxSessionCommands+1)
	for i := range bad.Commands {
		bad.Commands[i] = debug.Command{Op: "regs"}
	}
	if err := bad.Validate(100); err == nil {
		t.Error("oversized command script accepted")
	}
	bad = base
	bad.Mode = "warp"
	if err := bad.Validate(100); err == nil {
		t.Error("bad mode accepted")
	}
}

// TestDebugSessionJob: a debug-session job runs the script, streams a
// deterministic transcript, retains it under GET /sessions/{id}, and
// counts in the session metrics.
func TestDebugSessionJob(t *testing.T) {
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 4})

	req := Request{Type: TypeDebugSession, Seed: 1, Mode: "ultrix", Commands: sessionScript()}
	st := postStream(t, base, req)
	if !st.ok || st.status != http.StatusOK {
		t.Fatalf("session job failed: %+v", st)
	}
	for _, want := range []string{"debug-session: seed 1 mode Ultrix", "hit watch", "inspect", "exit: status="} {
		if !strings.Contains(st.output, want) {
			t.Errorf("summary missing %q:\n%s", want, st.output)
		}
	}

	// Byte-identical on a re-run (a fresh machine, possibly recycled).
	if again := postStream(t, base, req); !again.ok || again.output != st.output {
		t.Errorf("session not deterministic\nfirst:\n%s\nsecond:\n%s", st.output, again.output)
	}

	// The transcript is retained and served by id (ids are sequential
	// from 1 on a fresh server).
	resp, err := http.Get(base + "/sessions/1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /sessions/1: %d %s", resp.StatusCode, body)
	}
	if !strings.HasPrefix(string(body), "session 1 done=true\n") || !strings.Contains(string(body), "[01] ") {
		t.Errorf("session transcript = %q", body)
	}

	if got := s.snapshot().SessionsStarted; got != 2 {
		t.Errorf("sessions_started_total = %d, want 2", got)
	}
	if got := s.sessionCount(); got != 2 {
		t.Errorf("retained sessions = %d, want 2", got)
	}
	if resp, err := http.Get(base + "/sessions/99"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET unknown session: %d, want 404", resp.StatusCode)
		}
	}
}

// TestSessionEviction: finished sessions are evicted after the
// JobRetention window — the registry stays bounded and the eviction is
// observable in the counter, mirroring the job-eviction fix.
func TestSessionEviction(t *testing.T) {
	s, base := startTest(t, Config{Workers: 1, QueueDepth: 4, JobRetention: 50 * time.Millisecond})

	req := Request{Type: TypeDebugSession, Seed: 2, Mode: "fast",
		Commands: []debug.Command{{Op: "regs"}, {Op: "continue"}}}
	if st := postStream(t, base, req); !st.ok {
		t.Fatalf("session job failed: %+v", st)
	}
	if got := s.sessionCount(); got != 1 {
		t.Fatalf("retained sessions = %d, want 1 before eviction", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.sessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.snapshot().SessionsEvicted; got != 1 {
		t.Errorf("sessions_evicted_total = %d, want 1", got)
	}
	resp, err := http.Get(base + "/sessions/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET evicted session: %d, want 404", resp.StatusCode)
	}
}

// TestSessionMetricsSurfaced: the session counters appear in both
// /metrics renderings.
func TestSessionMetricsSurfaced(t *testing.T) {
	_, base := startTest(t, Config{Workers: 1, QueueDepth: 4})
	req := Request{Type: TypeDebugSession, Seed: 1, Mode: "ultrix",
		Commands: []debug.Command{{Op: "continue"}}}
	if st := postStream(t, base, req); !st.ok {
		t.Fatalf("session job failed: %+v", st)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"uexc_sessions_started_total 1",
		"uexc_sessions_evicted_total 0",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	js, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"sessions_started_total": 1`} {
		if !strings.Contains(string(js), want) {
			t.Errorf("JSON metrics missing %q in %s", want, js)
		}
	}
}
