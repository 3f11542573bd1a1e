package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"fastmatch"
	"fastmatch/internal/cluster"
	"fastmatch/internal/colstore"
	"fastmatch/internal/engine"
	"fastmatch/internal/server"
)

// Serving stack: fastmatch servers in this process, each on its own
// loopback listener.
//
//   - "main" serves the static flights table and the live-ingest
//     flights_live table;
//   - three shard servers each serve one colstore.ShardTables part of
//     flights as flights_3shard;
//   - the coordinator serves flights_3shard by scatter-gather over them.
//
// Every op goes through the HTTP API with a real round trip.

const (
	tableStatic  = "flights"
	tableLive    = "flights_live"
	tableCluster = "flights_3shard"
	// resultCacheSize bounds the main and coordinator result caches
	// below the number of distinct cold requests a run sends, while the
	// hotRequests repeat requests fit in it.
	resultCacheSize = 64
	hotRequests     = 8
	// clusterLookahead is the FastMatch marking window of the sampling
	// requests sent to both flights and flights_3shard: one that divides
	// the sampler's chunk size, the setting the cluster equivalence
	// suites pin as byte-identical across shard counts.
	clusterLookahead = 8
)

// flushPolicy describes the live table's write-flush setting.
const flushPolicy = "WAL NoSync (no fsync per append); default sealing (64 blocks); compaction every 1s"

// daemon is one server with its listener.
type daemon struct {
	srv  *fastmatch.Server
	http *http.Server
	url  string
	done chan struct{}
}

func startDaemon(srv *fastmatch.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a forced close after the timeout is fine here
	<-d.done
}

// template is one flights query posed over HTTP, with its brute-force
// answer on the static table under the server's default parameters.
type template struct {
	id     string
	query  server.QuerySpec
	target server.TargetSpec
	k      int
	truth  *truth
}

// serveStack is the running stack plus what the clients need.
type serveStack struct {
	tbl       *fastmatch.Table
	main      *daemon
	coord     *daemon
	shards    []*daemon
	live      *fastmatch.WritableTable
	client    *http.Client
	templates []template
	// hot holds the repeat requests and the result bytes each returned
	// when it was first answered.
	hot []hotRequest
	// rowSource renders static-table rows as append rows.
	colNames []string
	colCodes [][]uint32
	colDicts [][]string
	// liveTpl is the query sent to flights_live, which holds the static
	// table's first liveBase rows plus every acked append batch.
	liveTpl  template
	liveBase int
}

type hotRequest struct {
	body   []byte
	result []byte
}

// newServeStack generates nothing: it serves tbl (a flights table) and
// builds the shards, the live table under dir (loaded with tbl's first
// liveBase rows), and the ground truth.
func newServeStack(tbl *fastmatch.Table, dir string, liveBase int) (_ *serveStack, err error) {
	s := &serveStack{tbl: tbl, liveBase: liveBase}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	rows := tbl.NumRows()
	opts := fastmatch.DefaultOptions(rows)
	sigma, eps := opts.Params.Sigma, opts.Params.Epsilon
	for _, spec := range flightsTemplates() {
		hists, labels, err := histsAndLabels(tbl, spec.Z, spec.X, rows)
		if err != nil {
			return nil, err
		}
		counts, ft, err := pickTarget(spec, hists, labels, sigma, rows)
		if err != nil {
			return nil, err
		}
		s.templates = append(s.templates, template{
			id:     spec.ID,
			query:  server.QuerySpec{Z: spec.Z, X: []string{spec.X}},
			target: server.TargetSpec{Candidate: ft.candidate, Counts: ft.counts},
			k:      spec.K,
			truth:  newTruth(hists, labels, counts, spec.K, sigma, eps, rows),
		})
	}
	s.liveTpl = template{
		id:     "live",
		query:  server.QuerySpec{Z: "Origin", X: []string{"DepartureHour"}},
		target: server.TargetSpec{Uniform: true},
		k:      10,
	}
	for _, c := range tbl.Columns() {
		col, err := tbl.Column(c)
		if err != nil {
			return nil, err
		}
		s.colNames = append(s.colNames, c)
		s.colCodes = append(s.colCodes, col.Codes(0, rows))
		s.colDicts = append(s.colDicts, col.Dict.Values())
	}

	mainSrv := fastmatch.NewServer(fastmatch.ServerConfig{ResultCacheSize: resultCacheSize})
	if err := mainSrv.RegisterTable(tableStatic, tbl); err != nil {
		return nil, err
	}
	s.live, err = fastmatch.OpenIngestTable(filepath.Join(dir, "live"),
		fastmatch.IngestSchema{Columns: s.colNames, BlockSize: tbl.BlockSize()},
		fastmatch.IngestOptions{NoSync: true})
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < liveBase; lo += 10_000 {
		if _, err := s.live.Append(s.appendBatch(lo, min(lo+10_000, liveBase))); err != nil {
			return nil, fmt.Errorf("loading %s: %w", tableLive, err)
		}
	}
	if err := mainSrv.RegisterLiveTable(tableLive, s.live); err != nil {
		return nil, err
	}
	if s.main, err = startDaemon(mainSrv); err != nil {
		return nil, err
	}

	align := tbl.BlockSize() * engine.ChunkBlocks(tbl.BlockSize())
	parts, err := colstore.ShardTables(tbl, 3, align)
	if err != nil {
		return nil, err
	}
	var refs []cluster.ShardRef
	for i, part := range parts {
		ss := fastmatch.NewServer(fastmatch.ServerConfig{})
		if err := ss.RegisterTable(tableCluster, part); err != nil {
			return nil, err
		}
		d, err := startDaemon(ss)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, d)
		refs = append(refs, cluster.ShardRef{Name: fmt.Sprintf("shard%d", i), URL: d.url})
	}
	coordSrv := fastmatch.NewServer(fastmatch.ServerConfig{ResultCacheSize: resultCacheSize})
	if err := coordSrv.RegisterCoordinatedTable(tableCluster, refs); err != nil {
		return nil, err
	}
	if s.coord, err = startDaemon(coordSrv); err != nil {
		return nil, err
	}
	// The load comes from at most two client goroutines, so two
	// connections per server suffice.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}}

	for i := 0; i < hotRequests; i++ {
		body := s.sampleRequest(tableStatic, i%len(s.templates), int64(-1-i), false)
		rep, _, err := s.query(context.Background(), s.main.url, body)
		if err != nil {
			return nil, fmt.Errorf("warming repeat request %d: %w", i, err)
		}
		s.hot = append(s.hot, hotRequest{body: body, result: rep.Result})
	}
	return s, nil
}

// histsAndLabels returns the brute-force histograms of (z, x) over the
// first rows rows and the candidate labels.
func histsAndLabels(tbl *fastmatch.Table, z, x string, rows int) ([][]float64, []string, error) {
	hists, err := exactHists(tbl, z, x, rows)
	if err != nil {
		return nil, nil, err
	}
	zc, err := tbl.Column(z)
	if err != nil {
		return nil, nil, err
	}
	return hists, zc.Dict.Values(), nil
}

func (s *serveStack) close() {
	if s.main != nil {
		s.main.stop()
		// Unloading closes the live table (the server owns it).
		if err := s.main.srv.UnloadTable(tableLive); err != nil && s.live != nil {
			_ = s.live.Close()
		}
	} else if s.live != nil {
		_ = s.live.Close()
	}
	if s.coord != nil {
		s.coord.stop()
	}
	for _, d := range s.shards {
		d.stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// appendBatch renders static-table rows [lo, hi) as append rows.
func (s *serveStack) appendBatch(lo, hi int) []fastmatch.IngestRow {
	out := make([]fastmatch.IngestRow, 0, hi-lo)
	for r := lo; r < hi; r++ {
		vals := make(map[string]string, len(s.colNames))
		for c, name := range s.colNames {
			vals[name] = s.colDicts[c][s.colCodes[c][r]]
		}
		out = append(out, fastmatch.IngestRow{Values: vals})
	}
	return out
}

// sampleRequest is template t as a seeded FastMatch request on table.
func (s *serveStack) sampleRequest(table string, t int, seed int64, traced bool) []byte {
	tp := s.templates[t]
	k, la := tp.k, clusterLookahead
	return mustJSON(server.QueryRequest{
		Table: table, Query: tp.query, Target: tp.target, Trace: traced,
		Options: &server.OptionsSpec{K: &k, Executor: "fastmatch", Seed: &seed, Lookahead: &la},
	})
}

// exactRequest is template t as a Scan request on flights; the seed only
// makes it a distinct cache key, so it is a cold run.
func (s *serveStack) exactRequest(t int, seed int64, traced bool) []byte {
	return s.scanRequest(tableStatic, t, seed, traced)
}

// scanRequest is template t as a Scan request on table.
func (s *serveStack) scanRequest(table string, t int, seed int64, traced bool) []byte {
	tp := s.templates[t]
	k := tp.k
	return mustJSON(server.QueryRequest{
		Table: table, Query: tp.query, Target: tp.target, Trace: traced,
		Options: &server.OptionsSpec{K: &k, Executor: "scan", Seed: &seed},
	})
}

// liveRequest is an exact full scan of flights_live with zone-map
// skipping off, so the answer's tuples_read names the rows it saw.
func (s *serveStack) liveRequest(seed int64, traced bool) []byte {
	k := s.liveTpl.k
	return mustJSON(server.QueryRequest{
		Table: tableLive, Query: s.liveTpl.query, Target: s.liveTpl.target, Trace: traced,
		Options: &server.OptionsSpec{K: &k, Executor: "scan", Seed: &seed, DisableBlockSkip: true},
	})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are marshalled
	}
	return b
}

// reply is the part of a /v1/query response the benchmark reads.
type reply struct {
	Cached        bool                     `json:"cached"`
	DurationNS    int64                    `json:"duration_ns"`
	Trace         *fastmatch.TraceSnapshot `json:"trace"`
	MissingShards []string                 `json:"missing_shards"`
	Degraded      bool                     `json:"degraded"`
	Result        json.RawMessage          `json:"result"`
}

var errPartial = errors.New("partial result")

// post sends body to url+path and returns the response body; any
// transport error or non-2xx status is an error.
func (s *serveStack) post(ctx context.Context, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, nil
}

// query posts a query to url's /v1/query and decodes the reply and its
// result payload. Degraded and partial answers are errors.
func (s *serveStack) query(ctx context.Context, url string, body []byte) (reply, server.ResultPayload, error) {
	var rep reply
	var pl server.ResultPayload
	b, err := s.post(ctx, url+"/v1/query", body)
	if err != nil {
		return rep, pl, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, pl, fmt.Errorf("decoding reply: %w", err)
	}
	if err := json.Unmarshal(rep.Result, &pl); err != nil {
		return rep, pl, fmt.Errorf("decoding result: %w", err)
	}
	if rep.Degraded || len(rep.MissingShards) > 0 {
		return rep, pl, fmt.Errorf("degraded answer, missing shards %v", rep.MissingShards)
	}
	if pl.Partial {
		return rep, pl, errPartial
	}
	return rep, pl, nil
}

// stream posts to /v1/query/stream and reads every frame. It returns
// the time to the first progress frame past "start" and the terminal
// result frame.
func (s *serveStack) stream(ctx context.Context, body []byte) (time.Duration, server.StreamFrame, error) {
	var last server.StreamFrame
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.main.url+"/v1/query/stream", bytes.NewReader(body))
	if err != nil {
		return 0, last, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body) // the status is the error; the body only explains it
		return 0, last, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	br := bufio.NewReader(resp.Body)
	var first time.Duration
	for n := 0; ; n++ {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			at := time.Since(start)
			last = server.StreamFrame{}
			if jerr := json.Unmarshal(line, &last); jerr != nil {
				return first, last, fmt.Errorf("decoding frame %d: %w", n, jerr)
			}
			if first == 0 && last.Type == "progress" && last.Progress != nil && last.Progress.Phase != "start" {
				first = at
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return first, last, err
		}
	}
	switch {
	case last.Type == "error":
		return first, last, fmt.Errorf("stream error frame: %s", last.Error)
	case last.Type != "result":
		return first, last, fmt.Errorf("stream ended on a %q frame", last.Type)
	case first == 0:
		return first, last, errors.New("stream sent no progress frame past start")
	case last.Degraded:
		return first, last, fmt.Errorf("degraded stream answer")
	}
	var pl server.ResultPayload
	if err := json.Unmarshal(last.Result, &pl); err != nil {
		return first, last, fmt.Errorf("decoding stream result: %w", err)
	}
	if pl.Partial {
		return first, last, errPartial
	}
	return first, last, nil
}

// appendBody renders static rows [lo, lo+n) as an append request.
func (s *serveStack) appendBody(lo, n int) ([]byte, error) {
	if lo+n > s.tbl.NumRows() {
		return nil, fmt.Errorf("append batch at row %d runs past the %d source rows", lo, s.tbl.NumRows())
	}
	return mustJSON(server.AppendRequest{Rows: s.appendBatch(lo, lo+n)}), nil
}

// stats fetches a server's /v1/stats.
func (s *serveStack) stats(url string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := s.client.Get(url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// labelsOf returns a payload's match labels and distances in rank order.
func labelsOf(pl server.ResultPayload) ([]string, []float64) {
	ls := make([]string, len(pl.TopK))
	ds := make([]float64, len(pl.TopK))
	for i, m := range pl.TopK {
		ls[i], ds[i] = m.Label, m.Distance
	}
	return ls, ds
}
