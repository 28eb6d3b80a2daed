package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uexc/internal/core"
	"uexc/internal/debug"
	dt "uexc/internal/difftest"
	"uexc/internal/progen"
)

// maxSessionCommands bounds a debug-session command script so one
// request cannot stream an unbounded transcript.
const maxSessionCommands = 256

// session is the server-side record of one debug-session job: its
// transcript, retained after the job finishes so GET /sessions/{id}
// can serve it until the JobRetention window evicts it — the same
// bounded-memory rule finished jobs follow (and the same eviction bug
// class the PR 6 fix closed for s.jobs).
type session struct {
	id    uint64
	seed  int64
	mode  string
	lines []string
	done  bool
}

// registerSession adds a live session record (guarded by s.mu, like
// s.jobs).
func (s *Server) registerSession(j *job) *session {
	rec := &session{id: j.id, seed: j.req.Seed, mode: j.req.Mode}
	s.mu.Lock()
	s.sessions[j.id] = rec
	s.mu.Unlock()
	s.metrics.add(func(m *metrics) { m.SessionsStarted++ })
	return rec
}

// finishSession marks the record terminal and schedules its eviction
// after the retention window. Eviction is what keeps a long-lived
// server's session registry bounded; the counter makes it observable.
func (s *Server) finishSession(rec *session) {
	s.mu.Lock()
	rec.done = true
	s.mu.Unlock()
	time.AfterFunc(s.cfg.JobRetention, func() {
		s.mu.Lock()
		if _, live := s.sessions[rec.id]; live {
			delete(s.sessions, rec.id)
			s.metrics.add(func(m *metrics) { m.SessionsEvicted++ })
		}
		s.mu.Unlock()
	})
}

// sessionCount returns the number of retained session records (live
// and finished-but-unevicted), for the /metrics gauge.
func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// runDebugSession executes one debug-session job: generate the seed's
// program, run it under a virtual-breakpoint session (internal/debug),
// and execute the request's command script. Each command yields one
// deterministic transcript line, emitted as a progress event and
// folded into the summary — so a session journaled by the §12 store
// re-runs after a restart into the byte-identical stream, exactly like
// every other job type.
func (s *Server) runDebugSession(j *job) (bool, string, error) {
	mode, err := ParseMode(j.req.Mode)
	if err != nil {
		return false, "", err
	}
	rec := s.registerSession(j)
	defer s.finishSession(rec)

	p := progen.Generate(j.req.Seed)
	m, err := s.pool.Get()
	if err != nil {
		return false, "", fmt.Errorf("boot: %w", err)
	}
	healthy := false
	defer func() {
		if healthy {
			s.pool.Put(m)
		}
	}()
	src := p.Source(mode, false)
	if err := m.LoadProgram(src); err != nil {
		return false, "", fmt.Errorf("load: %w", err)
	}
	if mode == core.ModeHardware {
		m.EnableHardwareDelivery(progen.HWVector)
	}

	sess := debug.New(m, dt.SourceBudget(src, false, mode))
	defer sess.Detach()

	var b strings.Builder
	fmt.Fprintf(&b, "debug-session: seed %d mode %s\n", j.req.Seed, mode)
	for i, cmd := range j.req.Commands {
		line, err := sess.Exec(cmd)
		if err != nil {
			return false, b.String(), fmt.Errorf("command %d (%s): %w", i, cmd.Op, err)
		}
		out := fmt.Sprintf("[%02d] %s\n", i, line)
		b.WriteString(out)
		if j.req.Verbose {
			j.emit(Event{Type: "progress", Line: out})
		}
		s.mu.Lock()
		rec.lines = append(rec.lines, out)
		s.mu.Unlock()
		if err := j.ctx.Err(); err != nil {
			return false, b.String(), fmt.Errorf("debug-session aborted: %w", err)
		}
	}
	healthy = true
	return true, b.String(), nil
}

// handleSessionGet is GET /sessions/{id}: the retained transcript of a
// debug-session job. 404 after eviction, like /jobs/{id}.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/sessions/"), 10, 64)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	rec := s.sessions[id]
	var body string
	var done bool
	if rec != nil {
		body = strings.Join(rec.lines, "")
		done = rec.done
	}
	s.mu.Unlock()
	if rec == nil {
		http.Error(w, "unknown session", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "session %d done=%v\n%s", id, done, body)
}
