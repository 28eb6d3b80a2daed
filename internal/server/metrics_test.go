package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden files")

// TestMetricsGolden pins both /metrics encodings after a fixed,
// sequential job mix on a one-worker server: every job type, three
// delivery modes, two tenants and one malformed request. With one
// worker and one job at a time the pool's fork/restore pattern, and so
// every harvested simulator counter, is deterministic. The text is
// compared byte for byte; the JSON as its sorted flattened key/value
// lines with the time-dependent tenant token balances masked.
func TestMetricsGolden(t *testing.T) {
	_, base := startTest(t, Config{Workers: 1, QueueDepth: 4})
	jobs := []Request{
		{Type: TypeCampaign, Seeds: 2, Parallel: 1},
		{Type: TypeDifftest, Seeds: 2, Parallel: 1},
		{Type: TypeProgramRun, Seed: 3, Mode: "ultrix"},
		{Type: TypeProgramRun, Seed: 4, Mode: "fast"},
		{Type: TypeProgramRun, Seed: 5, Mode: "hardware"},
		{Type: TypeDebugSession, Seed: 1, Mode: "ultrix", Commands: sessionScript()},
		{Type: TypeFigureSweep},
	}
	for i, req := range jobs {
		tenant := ""
		if i%2 == 0 { // jobs 1, 3, 5, 7
			tenant = "acme"
		}
		if st := read(post(t, base, tenant, req)); st.status != http.StatusOK || !st.complete {
			t.Fatalf("job %d (%s): status %d: %s%s", i+1, req.Type, st.status, st.errText, st.output)
		}
	}
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed POST: status %d, want 400", resp.StatusCode)
	}

	checkGolden(t, "metrics.txt.golden", fetchBody(t, base+"/metrics"))

	var tree map[string]any
	dec := json.NewDecoder(bytes.NewReader(fetchBody(t, base+"/metrics?format=json")))
	dec.UseNumber()
	if err := dec.Decode(&tree); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	var lines []string
	flatten("", tree, &lines)
	sort.Strings(lines)
	checkGolden(t, "metrics.json.golden", []byte(strings.Join(lines, "\n")+"\n"))
}

// fetchBody GETs url and returns its body.
func fetchBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// flatten appends one "path value" line per JSON leaf, masking every
// tenant's token balance (it refills with wall-clock time).
func flatten(path string, v any, lines *[]string) {
	if obj, ok := v.(map[string]any); ok {
		for k, sub := range obj {
			p := k
			if path != "" {
				p = path + "." + k
			}
			flatten(p, sub, lines)
		}
		return
	}
	if strings.HasPrefix(path, "tenants.") && strings.HasSuffix(path, ".tokens") {
		v = "*"
	}
	*lines = append(*lines, fmt.Sprintf("%s %v", path, v))
}

// checkGolden compares got with testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
