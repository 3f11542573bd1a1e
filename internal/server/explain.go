package server

import (
	"net/http"

	"fastmatch/internal/engine"
)

// ExplainResponse is the body of POST /v1/explain: the plan's static
// execution profile — what the planner resolved and what the skip masks
// prove prunable — without running the query. The request body is the
// same QueryRequest as /v1/query (target and most options are ignored;
// executor and kernel/skip toggles shape the report).
type ExplainResponse struct {
	Table string `json:"table"`
	// Plan is the engine's static profile for the resolved plan.
	Plan engine.ExplainInfo `json:"plan"`
	// PlanCached reports whether the plan came from the plan cache.
	PlanCached bool `json:"plan_cached"`
	// Executor names the executor the request would run.
	Executor string `json:"executor"`
	// Crossover reports whether the request's run would be answered by
	// the exact Scan instead of its sampling executor, and
	// PredictedFraction is the share of the table the sampler was
	// predicted to read (engine.Options.Crossover decides on it).
	Crossover         bool    `json:"crossover"`
	PredictedFraction float64 `json:"predicted_fraction"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	pq := s.prepareQuery(w, r)
	if pq == nil {
		return
	}
	defer pq.release()
	if pq.entry.coord != nil {
		pq.fail(w, http.StatusUnprocessableEntity,
			"table %q is coordinated: explain it on a shard daemon (plans live where the data does)", pq.req.Table)
		return
	}
	plan, planHit, err := s.planFor(pq)
	if err != nil {
		pq.fail(w, http.StatusUnprocessableEntity, "planning query: %v", err)
		return
	}
	s.finishRequest(pq, outcomeOK, nil, planHit, false, http.StatusOK, "")
	info := plan.Explain()
	cross, frac := pq.opts.Crossover(int64(info.Rows), info.Groups)
	writeJSON(w, http.StatusOK, ExplainResponse{
		Table:             pq.req.Table,
		Plan:              info,
		PlanCached:        planHit,
		Executor:          pq.opts.Executor.String(),
		Crossover:         cross,
		PredictedFraction: frac,
	})
}
