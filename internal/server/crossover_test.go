package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"fastmatch/internal/obs/trace"
)

// crossoverRequest is baseRequest with the crossover left on: over the
// 20k-row fixture every sampling run is predicted to read far more than
// half the table, so the engine answers it with the exact Scan.
func crossoverRequest(seed int64, executor string) QueryRequest {
	req := baseRequest(seed, executor)
	req.Options.DisableCrossover = false
	return req
}

// postExplain posts req to /v1/explain.
func postExplain(t testing.TB, url string, req QueryRequest) ExplainResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %s", resp.Status)
	}
	var ex ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestCrossoverOverWire pins the serving side of the crossover: the
// result payload is the explicit Scan payload plus the crossover flag,
// /v1/explain predicts the decision, the run span records it, shadow
// audits and quality collection are skipped (the answer is exact), and
// /v1/stats and /metrics count it.
func TestCrossoverOverWire(t *testing.T) {
	s, tbl, ts := newTestServer(t, Config{AuditFraction: 1})
	req := crossoverRequest(9, "scanmatch")
	req.Quality = true
	req.Trace = true
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var reply struct {
		Trace   *trace.Snapshot `json:"trace"`
		Quality json.RawMessage `json:"quality"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	want := directPayload(t, tbl, baseRequest(9, "scan"))
	if got := bytes.Replace(reply.Result, []byte(`"crossover":true,`), nil, 1); !bytes.Equal(got, want) {
		t.Fatalf("crossover payload is not the Scan payload plus the flag:\n%s\nvs\n%s", reply.Result, want)
	}
	if reply.Quality != nil {
		t.Fatalf("crossover run carried a quality report: %s", reply.Quality)
	}
	run := reply.Trace.Find("run")
	if run == nil || run.Attrs["crossover"] != true {
		t.Fatalf("run span does not record the crossover: %+v", run)
	}

	s.auditWG.Wait()
	if log := getQualityLog(t, ts.URL); len(log.Queries) != 0 {
		t.Fatalf("crossover run reached the quality ring: %+v", log.Queries)
	}
	tm := getStats(t, ts.URL).Tables["fixture"]
	if tm.Crossovers != 1 || tm.AuditRuns != 0 || tm.QualityRuns != 0 {
		t.Fatalf("stats: crossovers=%d audits=%d quality runs=%d, want 1/0/0",
			tm.Crossovers, tm.AuditRuns, tm.QualityRuns)
	}
	if v := scrapeSample(t, ts.URL, `fastmatch_crossovers_total{table="fixture"}`); v != 1 {
		t.Fatalf("fastmatch_crossovers_total=%v, want 1", v)
	}

	ex := postExplain(t, ts.URL, req)
	if !ex.Crossover || ex.PredictedFraction < 0.5 {
		t.Fatalf("explain: crossover=%v fraction=%g", ex.Crossover, ex.PredictedFraction)
	}
	off := postExplain(t, ts.URL, baseRequest(9, "scanmatch"))
	if off.Crossover || off.PredictedFraction != ex.PredictedFraction {
		t.Fatalf("explain with disable_crossover: crossover=%v fraction=%g", off.Crossover, off.PredictedFraction)
	}
}

// TestCrossoverStreamSendsScanFrames: a streamed crossover run keeps the
// exact scan's frame shape — progress frames of phase "scan" before the
// terminal result.
func TestCrossoverStreamSendsScanFrames(t *testing.T) {
	_, _, ts := newTestServer(t, Config{})
	status, frames := postStream(t, ts.URL, crossoverRequest(13, "fastmatch"))
	if status != http.StatusOK || len(frames) < 3 {
		t.Fatalf("stream status %d, %d frames", status, len(frames))
	}
	scans := 0
	for _, f := range frames[1 : len(frames)-1] {
		if f.Type != "progress" || f.Progress == nil || f.Progress.Phase != "scan" {
			t.Fatalf("crossover stream sent a non-scan frame: %+v", f)
		}
		scans++
	}
	final := frames[len(frames)-1]
	if scans == 0 || final.Type != "result" || !bytes.Contains(final.Result, []byte(`"crossover":true`)) {
		t.Fatalf("%d scan frames, final frame %q %s", scans, final.Type, final.Result)
	}
}
