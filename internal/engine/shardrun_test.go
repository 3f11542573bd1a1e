package engine

import (
	"context"
	"testing"
)

// TestSampleSegmentRejectsMalformed: a sampling segment arrives from the
// wire, so every field the walk would trust is checked before any block
// is read. A valid request passes; each malformed one is an error.
func TestSampleSegmentRejectsMalformed(t *testing.T) {
	e := New(testDataset(t, 10_000, 8, 6, 3))
	p, err := e.Prepare(baseQuery())
	if err != nil {
		t.Fatal(err)
	}
	nb := e.Source().NumBlocks()
	valid := func() *ShardSegment {
		return &ShardSegment{Kind: SegStage1, Executor: ScanMatch, Visits: nb, GlobalBlocks: nb, Stage1Need: 100}
	}
	if _, err := p.RunShardSegment(context.Background(), valid()); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*ShardSegment)
	}{
		{"executor 99", func(s *ShardSegment) { s.Executor = 99 }},
		{"executor Scan", func(s *ShardSegment) { s.Executor = Scan }},
		{"executor 4", func(s *ShardSegment) { s.Executor = 4 }},
		{"negative stage-1 need", func(s *ShardSegment) { s.Stage1Need = -5 }},
		{"negative visits", func(s *ShardSegment) { s.Visits = -3 }},
		{"consumed count beyond the bitmap", func(s *ShardSegment) { s.ConsumedCount = nb + 7 }},
		{"cursor before the shard", func(s *ShardSegment) { s.Cursor = -1 }},
		{"cursor past the shard", func(s *ShardSegment) { s.Cursor = nb + 1 }},
		{"negative others consumed", func(s *ShardSegment) { s.OthersConsumed = -1 }},
		{"global blocks smaller than the shard", func(s *ShardSegment) { s.GlobalBlocks = nb - 1 }},
		{"deficit for an unknown candidate", func(s *ShardSegment) {
			s.Kind, s.Deficits = SegRound, map[int]int64{99: 1}
		}},
	}
	for _, c := range cases {
		req := valid()
		c.mod(req)
		if res, err := p.RunShardSegment(context.Background(), req); err == nil {
			t.Errorf("%s: accepted, visited %d blocks", c.name, res.Visited)
		}
	}
}
