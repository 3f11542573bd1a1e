package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fastmatch/internal/cluster"
)

// handleInternalPartial serves POST /v1/internal/partial — the
// shard-internal endpoint coordinators fold queries through. Two ops:
// "meta" answers the plan's shard metadata (domains, block counts, data
// generation) for coordinator validation and cache keying; "segment"
// executes one stateless slice of a global run (Plan.RunShardSegment).
// Segments carry all cross-call state in the request, so retries are
// harmless and any shard replica could answer them.
//
// The endpoint shares the plan cache with /v1/query: a shard serving
// both direct queries and coordinated segments for the same query shape
// resolves one plan, not two. It deliberately skips admission — a
// coordinator has at most one segment per query in flight on a shard,
// and a shard queueing segments behind its own local queries would
// stall the whole cluster fold.
func (s *Server) handleInternalPartial(w http.ResponseWriter, r *http.Request) {
	var preq cluster.PartialRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&preq); err != nil {
		writeError(w, http.StatusBadRequest, "decoding partial request: %v", err)
		return
	}
	entry, ok := s.reg.acquire(preq.Table)
	if !ok {
		writeError(w, http.StatusNotFound, "no table %q (see /v1/tables)", preq.Table)
		return
	}
	defer entry.release()
	if entry.coord != nil {
		writeError(w, http.StatusBadRequest,
			"table %q is itself coordinated: internal partials run on shard daemons, not coordinators", preq.Table)
		return
	}
	eng, gen, releaseView, err := entry.engineNow()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "table %q unavailable: %v", preq.Table, err)
		return
	}
	defer releaseView()

	var spec QuerySpec
	if err := json.Unmarshal(preq.Query, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding query spec: %v", err)
		return
	}
	q, err := spec.toQuery(eng)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "invalid query: %v", err)
		return
	}
	qfp, err := q.Fingerprint()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "invalid query: %v", err)
		return
	}
	planKey := fmt.Sprintf("%s\x00%d\x00%d\x00%s", preq.Table, entry.incarnation, gen, qfp)
	plan, ok := s.plans.Get(planKey)
	if !ok {
		if plan, err = eng.Prepare(q); err != nil {
			writeError(w, http.StatusUnprocessableEntity, "planning query: %v", err)
			return
		}
		s.plans.Put(planKey, plan)
	}

	switch preq.Op {
	case "meta":
		m := plan.ShardMeta()
		m.Generation = gen
		writeJSON(w, http.StatusOK, cluster.PartialResponse{Meta: &m})
	case "segment":
		if preq.Segment == nil {
			writeError(w, http.StatusBadRequest, "segment op needs a segment")
			return
		}
		segRes, err := plan.RunShardSegment(r.Context(), preq.Segment)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "running segment: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, cluster.PartialResponse{Segment: segRes})
	default:
		writeError(w, http.StatusBadRequest, "unknown op %q (want meta or segment)", preq.Op)
	}
}
