package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
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

// ReadEvents reads one NDJSON job stream, handing every event before
// the integrity trailer to each in order. It returns nil only if a
// result event arrived and the stream then ended in a trailer whose
// record count and FNV-1a-64 fingerprint (of every preceding line with
// its newline) match what the reader itself counted and hashed; a
// malformed event, a read error, a missing or lying trailer, or an
// error from each ends the read with that error. It is the one place a
// client verifies a stream, so a truncated or corrupted stream can
// never pass as complete.
func ReadEvents(r io.Reader, each func(Event) error) error {
	h := fnv.New64a()
	records := 0
	sawResult := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("malformed event: %w", err)
		}
		if ev.Type == "trailer" {
			if !sawResult {
				return errors.New("trailer arrived before a result event")
			}
			if ev.Records != records {
				return fmt.Errorf("trailer counts %d records, client saw %d", ev.Records, records)
			}
			if want := fmt.Sprintf("%016x", h.Sum64()); ev.FNV != want {
				return fmt.Errorf("stream fingerprint mismatch: trailer %s, client %s", ev.FNV, want)
			}
			return nil
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		records++
		sawResult = sawResult || ev.Type == "result"
		if err := each(ev); err != nil {
			return err
		}
	}
	// A reset connection or an over-long line stops the scanner early;
	// that is a transport failure, not a clean end of stream.
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream read failed: %w", err)
	}
	if sawResult {
		return errors.New("stream ended without an integrity trailer")
	}
	return errors.New("stream ended without a result event")
}

// StreamResult reads one job stream through ReadEvents and
// reconstructs the CLI-equivalent output: concatenated progress lines
// followed by the result summary. It returns the reconstructed output,
// the result verdict, whether the stream completed with a verified
// trailer, and the result's error (or, for an incomplete stream, why
// it is incomplete).
func StreamResult(r io.Reader) (output string, ok, complete bool, errText string) {
	var b strings.Builder
	var result Event
	err := ReadEvents(r, func(ev Event) error {
		switch ev.Type {
		case "progress":
			b.WriteString(ev.Line)
		case "result":
			result = ev
			b.WriteString(ev.Summary)
		}
		return nil
	})
	if err != nil {
		return b.String(), false, false, err.Error()
	}
	return b.String(), result.OK != nil && *result.OK, true, result.Error
}
