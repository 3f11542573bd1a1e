package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
)

// clusterReply extends wireReply with the coordinated-table fields.
type clusterReply struct {
	Table         string                `json:"table"`
	Cached        bool                  `json:"cached"`
	Shards        []cluster.ShardStatus `json:"shards"`
	MissingShards []string              `json:"missing_shards"`
	Degraded      bool                  `json:"degraded"`
	Result        json.RawMessage       `json:"result"`
}

// clusterFixture is a 3-shard cluster and a single-node control, both
// serving the same fixture data over real HTTP.
type clusterFixture struct {
	coord   *Server
	coordTS *httptest.Server
	single  *httptest.Server
	shards  []*httptest.Server
}

// newClusterFixture splits the fixture table into n chunk-aligned shards,
// serves each from its own HTTP daemon, and fronts them with a
// coordinator; a single node serving the unsplit table is the control.
func newClusterFixture(t testing.TB, n int, coordCfg Config) *clusterFixture {
	t.Helper()
	tbl := fixtureTable(t)
	align := tbl.BlockSize() * engine.ChunkBlocks(tbl.BlockSize())
	parts, err := colstore.ShardTables(tbl, n, align)
	if err != nil {
		t.Fatal(err)
	}
	fx := &clusterFixture{}
	refs := make([]cluster.ShardRef, n)
	for i, part := range parts {
		ss := New(Config{})
		if err := ss.RegisterTable("fixture", part); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(ss.Handler())
		t.Cleanup(ts.Close)
		fx.shards = append(fx.shards, ts)
		refs[i] = cluster.ShardRef{Name: shardName(i), URL: ts.URL}
	}
	fx.coord = New(coordCfg)
	if err := fx.coord.RegisterCoordinatedTable("fixture", refs); err != nil {
		t.Fatal(err)
	}
	fx.coordTS = httptest.NewServer(fx.coord.Handler())
	t.Cleanup(fx.coordTS.Close)
	_, _, fx.single = newTestServer(t, Config{})
	return fx
}

func shardName(i int) string { return string(rune('a' + i)) }

func postClusterQuery(t testing.TB, url string, req QueryRequest) (int, clusterReply) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out clusterReply
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

// TestCoordinatedHTTPByteIdentical proves the serving-layer contract:
// a coordinated answer's result bytes — blocking, streamed, and cached —
// are byte-identical to a single node serving the unsplit table. The
// fixture is small enough that sampling runs cross over to Scan, so each
// sampling executor runs once with the crossover disabled (the sampler)
// and once with it on (both paths must flag the crossover alike).
func TestCoordinatedHTTPByteIdentical(t *testing.T) {
	fx := newClusterFixture(t, 3, Config{})
	seed := int64(11)
	lookahead := 8
	modes := []struct {
		exec    string
		noCross bool
	}{{"scan", false}, {"scanmatch", true}, {"syncmatch", true}, {"fastmatch", true}, {"scanmatch", false}, {"fastmatch", false}}
	for _, m := range modes {
		exec := m.exec
		if !m.noCross && exec != "scan" {
			exec += "+crossover"
		}
		req := QueryRequest{
			Table:  "fixture",
			Query:  QuerySpec{Z: "Z", X: []string{"X"}},
			Target: TargetSpec{Uniform: true},
			Options: &OptionsSpec{Executor: m.exec, Seed: &seed, Lookahead: &lookahead,
				DisableCrossover: m.noCross},
		}
		status, single := postQuery(t, fx.single.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: single node status %d", exec, status)
		}
		status, coord := postClusterQuery(t, fx.coordTS.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: coordinator status %d", exec, status)
		}
		if !bytes.Equal(coord.Result, single.Result) {
			t.Errorf("%s: coordinated result differs from single node\ncoord:  %s\nsingle: %s",
				exec, coord.Result, single.Result)
		}
		if crossed := bytes.Contains(single.Result, []byte(`"crossover":true`)); crossed != (exec != m.exec) {
			t.Errorf("%s: crossover flag %v in %s", exec, crossed, single.Result)
		}
		if coord.Degraded || len(coord.MissingShards) != 0 {
			t.Errorf("%s: healthy cluster reported degraded=%v missing=%v", exec, coord.Degraded, coord.MissingShards)
		}
		if len(coord.Shards) != 3 {
			t.Errorf("%s: want 3 shard statuses, got %d", exec, len(coord.Shards))
		}

		// Same request again: a result-cache hit with identical bytes.
		status, again := postClusterQuery(t, fx.coordTS.URL, req)
		if status != http.StatusOK || !again.Cached {
			t.Errorf("%s: repeat status %d cached=%v, want 200 cached", exec, status, again.Cached)
		}
		if !bytes.Equal(again.Result, single.Result) {
			t.Errorf("%s: cached coordinated result differs from single node", exec)
		}

		// Streaming endpoint: the terminal frame's result bytes match too.
		body, _ := json.Marshal(req)
		resp, err := http.Post(fx.coordTS.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var last StreamFrame
		frames := 0
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Fatalf("%s: bad stream frame: %v", exec, err)
			}
			frames++
		}
		resp.Body.Close()
		if last.Type != "result" {
			t.Fatalf("%s: stream ended with %q frame after %d frames (error %q)", exec, last.Type, frames, last.Error)
		}
		if !bytes.Equal(last.Result, single.Result) {
			t.Errorf("%s: streamed coordinated result differs from single node", exec)
		}
	}
}

// TestCoordinatedHTTPShardLoss kills one shard daemon and asserts the
// degraded-but-honest contract end to end: HTTP 200, partial flagged,
// the missing shard named, and the failure visible in /v1/stats.
func TestCoordinatedHTTPShardLoss(t *testing.T) {
	fx := newClusterFixture(t, 3, Config{})
	fx.shards[1].Close()

	seed := int64(7)
	req := QueryRequest{
		Table:   "fixture",
		Query:   QuerySpec{Z: "Z", X: []string{"X"}},
		Target:  TargetSpec{Uniform: true},
		Options: &OptionsSpec{Executor: "scan", Seed: &seed},
	}
	status, rep := postClusterQuery(t, fx.coordTS.URL, req)
	if status != http.StatusOK {
		t.Fatalf("shard loss must degrade, not fail: status %d", status)
	}
	if !rep.Degraded {
		t.Fatal("want degraded=true with a dead shard")
	}
	if len(rep.MissingShards) != 1 || rep.MissingShards[0] != shardName(1) {
		t.Fatalf("want missing_shards [%q], got %v", shardName(1), rep.MissingShards)
	}
	var payload ResultPayload
	if err := json.Unmarshal(rep.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if !payload.Partial || payload.Exact {
		t.Fatalf("degraded answer must be partial and not exact, got partial=%v exact=%v",
			payload.Partial, payload.Exact)
	}

	stats := getStats(t, fx.coordTS.URL)
	tm, ok := stats.Tables["fixture"]
	if !ok {
		t.Fatal("coordinator stats missing table")
	}
	if len(tm.Shards) != 3 {
		t.Fatalf("want 3 shard stats, got %d", len(tm.Shards))
	}
	var deadErrs int64
	for _, sc := range tm.Shards {
		if sc.Name == shardName(1) {
			deadErrs = sc.Errors
			if sc.Healthy {
				t.Error("dead shard reported healthy")
			}
			if sc.LastError == "" {
				t.Error("dead shard has no last_error")
			}
		} else if sc.Errors != 0 {
			t.Errorf("healthy shard %s has %d errors", sc.Name, sc.Errors)
		}
	}
	if deadErrs == 0 {
		t.Error("dead shard has no error count")
	}

	// Degraded answers are never cached: the repeat must not be a hit.
	if _, rep2 := postClusterQuery(t, fx.coordTS.URL, req); rep2.Cached {
		t.Error("degraded answer was served from cache")
	}
}

// TestCoordinatedHTTPAudit exercises the coordinated shadow-audit path:
// with AuditFraction 1 every completed sampling answer is re-executed
// across the shard set and graded, feeding the audit counters.
func TestCoordinatedHTTPAudit(t *testing.T) {
	fx := newClusterFixture(t, 2, Config{AuditFraction: 1})
	seed := int64(3)
	req := QueryRequest{
		Table:   "fixture",
		Query:   QuerySpec{Z: "Z", X: []string{"X"}},
		Target:  TargetSpec{Uniform: true},
		Options: &OptionsSpec{Executor: "syncmatch", Seed: &seed, DisableCrossover: true},
	}
	status, _ := postClusterQuery(t, fx.coordTS.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	fx.coord.auditWG.Wait()
	stats := getStats(t, fx.coordTS.URL)
	tm := stats.Tables["fixture"]
	if tm.AuditRuns != 1 {
		t.Fatalf("want 1 audit run, got %d", tm.AuditRuns)
	}
	if tm.AuditErrors != 0 {
		t.Fatalf("coordinated audit failed (%d errors)", tm.AuditErrors)
	}
}

// TestInternalPartialGuards covers the shard-internal endpoint's refusal
// paths: unknown tables 404, coordinated tables 400 (a coordinator is
// not a shard), unknown ops 400.
func TestInternalPartialGuards(t *testing.T) {
	fx := newClusterFixture(t, 2, Config{})
	post := func(url string, preq cluster.PartialRequest) int {
		t.Helper()
		body, _ := json.Marshal(preq)
		resp, err := http.Post(url+"/v1/internal/partial", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	rawQ := json.RawMessage(`{"z":"Z","x":["X"]}`)
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "nope", Query: rawQ, Op: "meta"}); got != http.StatusNotFound {
		t.Errorf("unknown table: want 404, got %d", got)
	}
	if got := post(fx.coordTS.URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "meta"}); got != http.StatusBadRequest {
		t.Errorf("coordinated table: want 400, got %d", got)
	}
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "nope"}); got != http.StatusBadRequest {
		t.Errorf("unknown op: want 400, got %d", got)
	}
	if got := post(fx.shards[0].URL, cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "meta"}); got != http.StatusOK {
		t.Errorf("meta on a shard: want 200, got %d", got)
	}
	// Malformed sampling-segment state is a 422, never a segment run as
	// if it were valid.
	seg := func(mod func(*engine.ShardSegment)) cluster.PartialRequest {
		s := &engine.ShardSegment{Kind: engine.SegStage1, Executor: engine.ScanMatch, Visits: 1, GlobalBlocks: 1 << 20, Stage1Need: 100}
		mod(s)
		return cluster.PartialRequest{Table: "fixture", Query: rawQ, Op: "segment", Segment: s}
	}
	if got := post(fx.shards[0].URL, seg(func(*engine.ShardSegment) {})); got != http.StatusOK {
		t.Errorf("valid segment: want 200, got %d", got)
	}
	for name, mod := range map[string]func(*engine.ShardSegment){
		"executor 99":                         func(s *engine.ShardSegment) { s.Executor = 99 },
		"executor Scan":                       func(s *engine.ShardSegment) { s.Executor = engine.Scan },
		"negative stage-1 need":               func(s *engine.ShardSegment) { s.Stage1Need = -5 },
		"negative visits":                     func(s *engine.ShardSegment) { s.Visits = -3 },
		"consumed count with an empty bitmap": func(s *engine.ShardSegment) { s.ConsumedCount = 7 },
	} {
		if got := post(fx.shards[0].URL, seg(mod)); got != http.StatusUnprocessableEntity {
			t.Errorf("%s: want 422, got %d", name, got)
		}
	}
}
