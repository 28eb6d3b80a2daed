package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	dt "uexc/internal/difftest"
	"uexc/internal/harness"
)

// PostJob submits one job to the server at base under tenant ("": the
// default tenant) and returns the raw response; the caller owns the
// body. It is the one place a client marshals a Request.
func PostJob(ctx context.Context, base, tenant string, req Request) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	return http.DefaultClient.Do(hreq)
}

// Metrics fetches one /metrics snapshot from the server at base.
func Metrics(base string) (Snapshot, error) {
	var snap Snapshot
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// WaitMetrics polls /metrics until cond holds, returning the snapshot
// that satisfied it, or an error carrying the last one once timeout
// lapses.
func WaitMetrics(base string, timeout time.Duration, cond func(Snapshot) bool) (Snapshot, error) {
	deadline := time.Now().Add(timeout)
	for {
		s, err := Metrics(base)
		if err != nil {
			return s, err
		}
		if cond(s) {
			return s, nil
		}
		if time.Now().After(deadline) {
			return s, fmt.Errorf("condition never held; last snapshot: %+v", s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Golden is what `uexc-bench -faultcampaign|-difftest -seeds N -v`
// prints at width 1 — the progress stream followed by the summary —
// for a campaign or difftest job of the given size. It defines the
// serving layer's byte-identity contract: StreamResult's reconstruction
// of that job's stream must equal it at any shard width, across kills
// and resumes, and through a fleet coordinator.
func Golden(ctx context.Context, typ Type, seeds int) (string, error) {
	var b strings.Builder
	switch typ {
	case TypeCampaign:
		res, err := harness.FaultCampaignCtx(ctx, nil, seeds, 1, &b)
		if err != nil {
			return "", err
		}
		b.WriteString(res.Summary())
	case TypeDifftest:
		res, err := dt.CampaignCtx(ctx, nil, seeds, 1, &b)
		if err != nil {
			return "", err
		}
		b.WriteString(res.Summary())
	default:
		return "", fmt.Errorf("no CLI golden for job type %q", typ)
	}
	return b.String(), nil
}

// StreamResult reads one NDJSON job stream and reconstructs the
// CLI-equivalent output: concatenated progress lines followed by the
// result summary. It returns the reconstructed output, the result
// verdict, and whether the stream completed — which now requires the
// integrity trailer: the final event's record count and FNV-1a-64
// fingerprint must match what the client itself counted and hashed,
// so a truncated or corrupted stream can never pass as complete.
func StreamResult(r io.Reader) (output string, ok, complete bool, errText string) {
	var b strings.Builder
	h := fnv.New64a()
	records := 0
	sawResult := false
	var resultOK bool
	var resultErr string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return b.String(), false, false, "malformed event: " + err.Error()
		}
		if ev.Type == "trailer" {
			if !sawResult {
				return b.String(), false, false, "trailer arrived before a result event"
			}
			if ev.Records != records {
				return b.String(), false, false,
					fmt.Sprintf("trailer counts %d records, client saw %d", ev.Records, records)
			}
			if want := fmt.Sprintf("%016x", h.Sum64()); ev.FNV != want {
				return b.String(), false, false,
					fmt.Sprintf("stream fingerprint mismatch: trailer %s, client %s", ev.FNV, want)
			}
			return b.String(), resultOK, true, resultErr
		}
		// The trailer fingerprints every preceding line with its newline.
		h.Write(line)
		h.Write([]byte{'\n'})
		records++
		switch ev.Type {
		case "progress":
			b.WriteString(ev.Line)
		case "result":
			sawResult = true
			b.WriteString(ev.Summary)
			if ev.OK != nil {
				resultOK = *ev.OK
			}
			resultErr = ev.Error
		}
	}
	// A reset connection or an over-long line stops the scanner early;
	// that is a transport failure, not a clean end of stream.
	if err := sc.Err(); err != nil {
		return b.String(), false, false, "stream read failed: " + err.Error()
	}
	if sawResult {
		return b.String(), false, false, "stream ended without an integrity trailer"
	}
	return b.String(), false, false, "stream ended without a result event"
}
