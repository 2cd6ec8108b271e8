package analysis

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/netmeasure/topicscope/internal/etld"
)

// ShardIndex is the partial analysis aggregate of one campaign shard: an
// indexShard stopped just before finalize. Every field merges
// commutatively (counters add, sets union, maxima max — see the Index
// determinism invariant), so a distributed campaign can index each
// journal shard independently and combine the partials into the same
// Index a single pass over the merged dataset would build, without ever
// re-reading the merged journal.
type ShardIndex struct {
	agg    *indexShard
	visits int
}

// Visits returns how many visit records the partial covers.
func (s *ShardIndex) Visits() int { return s.visits }

// BuildShardIndex aggregates one shard's dataset into a mergeable
// partial, using the striped parallel pass BuildIndex finalizes. The
// input's Allowlist must be the campaign-global one — the allow-list
// membership bit is folded into the partial and must agree across
// shards. Attestations are not consulted until finalize (they do not
// exist while a campaign is still crawling), so the partial needs none.
func BuildShardIndex(in *Input) *ShardIndex {
	return buildShardIndex(in, runtime.GOMAXPROCS(0))
}

// buildShardIndex is the one striped pass: each worker folds a
// contiguous stripe of the visits into a private accumulator, and the
// stripes merge into the first.
func buildShardIndex(in *Input, workers int) *ShardIndex {
	visits := in.Data.Visits
	workers = max(1, min(workers, len(visits)))

	cache := etld.NewCache()
	shards := make([]*indexShard, workers)
	var wg sync.WaitGroup
	stripe := (len(visits) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		s := newIndexShard(in, cache)
		shards[w] = s
		lo := w * stripe
		hi := lo + stripe
		if hi > len(visits) {
			hi = len(visits)
		}
		wg.Add(1)
		go func(s *indexShard, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				s.add(&visits[i])
			}
		}(s, lo, hi)
	}
	wg.Wait()
	in.Metrics.Add("analysis_visits_indexed_total", int64(len(visits)))
	in.Metrics.Add("analysis_index_shards_total", int64(workers))

	agg := shards[0]
	for _, s := range shards[1:] {
		agg.absorb(s)
	}
	return &ShardIndex{agg: agg, visits: len(visits)}
}

// MergeShardIndexes combines per-shard partials into one finalized
// Index. in must be the campaign-global input — the merged dataset,
// allow-list and attestation checks — because finalize reads the
// allow-list block and enrolment timeline from it; the visit-derived
// aggregates come entirely from the partials. Merge order cannot
// influence the result (absorb is commutative), the partials are left
// untouched (they are absorbed into a fresh accumulator), and the
// returned Index equals BuildIndex(in) field for field — the
// cross-shard parity test pins that.
func MergeShardIndexes(in *Input, parts ...*ShardIndex) (*Index, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("analysis: merging shard indexes: no partials")
	}
	agg := newIndexShard(in, parts[0].agg.cache)
	for _, p := range parts {
		agg.absorb(p.agg)
	}
	in.Metrics.Add("analysis_shard_indexes_merged_total", int64(len(parts)))
	return agg.finalize(in), nil
}

// AdoptIndex installs an externally built index (one assembled by
// MergeShardIndexes) as the input's index, so Compute* calls and Run
// reuse it instead of re-scanning the dataset. It must be called before
// the first Index() query; afterwards it reports false and changes
// nothing.
func (in *Input) AdoptIndex(idx *Index) bool {
	adopted := false
	in.indexOnce.Do(func() {
		in.index = idx
		adopted = true
	})
	return adopted
}
