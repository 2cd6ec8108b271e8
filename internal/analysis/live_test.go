package analysis

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/chaos"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// chaosFixture is a 1k-site chaos campaign — small enough that folding
// every prefix against a from-scratch oracle stays cheap, faulted so
// the fold sees retries, partial visits and every error class.
var (
	chaosOnce    sync.Once
	chaosFixture *Input
)

func chaosInput(t *testing.T) *Input {
	t.Helper()
	chaosOnce.Do(func() {
		world := webworld.Generate(webworld.Config{Seed: 11, NumSites: 1000})
		server := webserver.New(world, nil)
		allow := attestation.NewAllowlist(world.Catalog.AllowedDomains()...)
		client := server.Client()
		client.Transport = chaos.NewInjector(webworld.DefaultChaos(3), client.Transport)
		c := crawler.New(crawler.Config{
			Client:             client,
			ReferenceAllowlist: allow,
			Workers:            8,
			Collect:            true,
		})
		res, err := c.Run(context.Background(), world.List())
		if err != nil {
			panic(err)
		}
		domains := allow.Domains()
		domains = append(domains, crawler.CallerDomains(res.Data)...)
		recs := c.CheckAttestations(context.Background(), domains)
		chaosFixture = &Input{
			Data:         res.Data,
			Allowlist:    allow,
			Attestations: dataset.AttestationIndex(recs),
		}
	})
	return chaosFixture
}

// indexComparisons enumerates every precomputed field of a finalized
// Index for DeepEqual checks (the etld cache is deliberately excluded:
// two equal indexes may have warmed it differently).
func indexComparisons(got, ref *Index) []struct {
	name     string
	got, ref any
} {
	return []struct {
		name     string
		got, ref any
	}{
		{"called", got.called, ref.called},
		{"present", got.present, ref.present},
		{"callers", got.callers, ref.callers},
		{"aaAllowlist", got.aaAllowlist, ref.aaAllowlist},
		{"overview", got.overview, ref.overview},
		{"reliability", got.reliability, ref.reliability},
		{"table1", got.table1, ref.table1},
		{"anomaly", got.anomaly, ref.anomaly},
		{"figure7", got.figure7, ref.figure7},
		{"callTypes", got.callTypes, ref.callTypes},
		{"languages", got.languages, ref.languages},
		{"enrolment", got.enrolment, ref.enrolment},
		{"trajectory", got.trajectory, ref.trajectory},
	}
}

func assertIndexEqual(t *testing.T, label string, got, ref *Index) {
	t.Helper()
	for _, cmp := range indexComparisons(got, ref) {
		if !reflect.DeepEqual(cmp.got, cmp.ref) {
			t.Fatalf("%s: %s diverges from the from-scratch build\ngot: %+v\nref: %+v",
				label, cmp.name, cmp.got, cmp.ref)
		}
	}
}

// TestIncrementalIndexParity is the fold oracle: after every single
// record of the chaos campaign, the incrementally folded index must
// deep-equal a from-scratch BuildIndex over the same prefix — Fold is
// add, and add order is the journal's append order, so there is no
// prefix at which the two can legally differ. The full campaign then
// pins byte-identical report JSON.
func TestIncrementalIndexParity(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	if len(visits) < 500 {
		t.Fatalf("fixture too small: %d visits", len(visits))
	}

	live := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for p := 1; p <= len(visits); p++ {
		live.Fold(&visits[p-1])
		got := live.Snapshot(in)
		prefixIn := &Input{
			Data:         &dataset.Dataset{Visits: visits[:p]},
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		}
		assertIndexEqual(t, "prefix "+strconv.Itoa(p), got, prefixIn.Index())
	}
	if live.Visits() != len(visits) {
		t.Fatalf("folded %d visits, want %d", live.Visits(), len(visits))
	}

	// Full campaign: the report computed from the folded index must be
	// byte-identical to the one computed from the batch build.
	liveRun := &Input{Allowlist: in.Allowlist, Attestations: in.Attestations}
	if !liveRun.AdoptIndex(live.Snapshot(liveRun)) {
		t.Fatal("live index not adopted")
	}
	refRun := &Input{Data: in.Data, Allowlist: in.Allowlist, Attestations: in.Attestations}
	got, err := json.Marshal(Run(liveRun))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(Run(refRun))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("full-campaign report from the folded index differs from the batch build")
	}
}

// TestLiveIndexMergeProperty is satellite 4: folding records in rank
// (append) order versus merging per-shard live indexes built from a
// RANDOM partition, merged in a RANDOM order, must yield identical
// section output — the live fold and the distributed merge are two
// routes to one accumulator.
func TestLiveIndexMergeProperty(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits

	ref := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for i := range visits {
		ref.Fold(&visits[i])
	}
	refIdx := ref.Snapshot(in)

	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x11f7e))
		k := 1 + rng.IntN(6)
		assign := make([][]int, k)
		for i := range visits {
			w := rng.IntN(k)
			assign[w] = append(assign[w], i)
		}

		lives := make([]*LiveIndex, k)
		var wg sync.WaitGroup
		for w := 0; w < k; w++ {
			lives[w] = NewLiveIndex(&Input{Allowlist: in.Allowlist})
			wg.Add(1)
			go func(l *LiveIndex, idxs []int) {
				defer wg.Done()
				for _, i := range idxs {
					l.Fold(&visits[i])
				}
			}(lives[w], assign[w])
		}
		wg.Wait()

		order := rng.Perm(k)
		parts := make([]*ShardIndex, 0, k)
		for _, j := range order {
			parts = append(parts, lives[j].Shard())
		}
		merged := &Input{Allowlist: in.Allowlist, Attestations: in.Attestations}
		idx, err := MergeShardIndexes(merged, parts...)
		if err != nil {
			t.Fatal(err)
		}
		assertIndexEqual(t, "trial "+strconv.Itoa(trial), idx, refIdx)
	}
}

// foldJournal writes the given visits through a checkpointed journal
// with a live sink attached, completing each site group as the crawler
// would, and returns the sink.
func foldJournal(t *testing.T, path string, visits []dataset.Visit, every int, liveIn *Input) *LiveSink {
	t.Helper()
	sink := NewLiveSink(path, liveIn)
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{
		CheckpointEvery: every,
		Observer:        sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestLiveSnapshotRoundTrip pins the .idx codec: the snapshot a sink
// serialized at the final checkpoint restores to an accumulator whose
// finalized index deep-equals the batch build, costs zero tail bytes to
// load, and keeps folding correctly afterwards.
func TestLiveSnapshotRoundTrip(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	split := len(visits) * 3 / 4
	path := filepath.Join(t.TempDir(), "live.jsonl.gz")
	foldJournal(t, path, visits[:split], 7, &Input{Allowlist: in.Allowlist})

	live, info := LoadIndexSnapshot(path, &Input{Allowlist: in.Allowlist})
	if live == nil {
		t.Fatal("snapshot did not restore")
	}
	if info.Visits != split || live.Visits() != split {
		t.Fatalf("restored %d visits (info %d), want %d", live.Visits(), info.Visits, split)
	}

	prefixIn := &Input{
		Data:         &dataset.Dataset{Visits: visits[:split]},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}
	assertIndexEqual(t, "restored snapshot", live.Snapshot(in), prefixIn.Index())

	// The accumulator keeps folding after a restore: finishing the
	// remaining visits must converge to the full-campaign index.
	for i := split; i < len(visits); i++ {
		live.Fold(&visits[i])
	}
	fullIn := &Input{Data: in.Data, Allowlist: in.Allowlist, Attestations: in.Attestations}
	assertIndexEqual(t, "restored+folded tail", live.Snapshot(in), fullIn.Index())

	// LoadLive over the same journal reads zero tail bytes: everything
	// was committed and snapshotted.
	idx, st, err := LoadLive(path, &Input{Allowlist: in.Allowlist, Attestations: in.Attestations})
	if err != nil {
		t.Fatal(err)
	}
	if !st.SnapshotRestored || st.TailRecords != 0 || st.BytesRead != 0 {
		t.Fatalf("final-checkpoint LoadLive stats %+v, want restored snapshot and an empty tail", st)
	}
	assertIndexEqual(t, "LoadLive", idx, prefixIn.Index())
}

// editSnapshotJSON rewrites the .idx at p through its top-level fields.
func editSnapshotJSON(t *testing.T, p string, edit func(map[string]json.RawMessage)) {
	t.Helper()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	edit(fields)
	if data, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLiveSnapshotCorruptionDegrades is the torn-.idx half of satellite
// 3: a truncated, corrupt, version-skewed or mismatched snapshot must
// degrade every reader to a full folding scan — same result, more
// bytes, never an error.
func TestLiveSnapshotCorruptionDegrades(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:400]
	ref := &Input{
		Data:         &dataset.Dataset{Visits: visits},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, idxPath string)
	}{
		{"truncated", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, p string) {
			if err := os.WriteFile(p, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-byte", func(t *testing.T, p string) {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			// Flip inside the version number region at the head.
			data[12] ^= 0xff
			os.WriteFile(p, data, 0o644) //nolint:errcheck // test corruption
		}},
		{"missing", func(t *testing.T, p string) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}},
		// A fresh accumulator never writes null, so a null map is a file
		// some other writer produced: restoring it would hand the fold a
		// nil map.
		{"null-top-level-map", func(t *testing.T, p string) {
			editSnapshotJSON(t, p, func(fields map[string]json.RawMessage) {
				fields["by_class"] = json.RawMessage("null")
			})
		}},
		{"null-nested-set", func(t *testing.T, p string) {
			editSnapshotJSON(t, p, func(fields map[string]json.RawMessage) {
				var epochs map[string]map[string]json.RawMessage
				if err := json.Unmarshal(fields["epochs"], &epochs); err != nil || len(epochs) == 0 {
					t.Fatalf("snapshot has no epochs to corrupt: %v", err)
				}
				for _, ep := range epochs {
					ep["callers"] = json.RawMessage("null")
					break
				}
				data, err := json.Marshal(epochs)
				if err != nil {
					t.Fatal(err)
				}
				fields["epochs"] = data
			})
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.jsonl.gz")
			foldJournal(t, path, visits, 5, &Input{Allowlist: in.Allowlist})
			tc.corrupt(t, IndexSnapshotPath(path))

			if live, _ := LoadIndexSnapshot(path, &Input{Allowlist: in.Allowlist}); live != nil {
				t.Fatal("corrupt snapshot restored")
			}
			idx, st, err := LoadLive(path, &Input{Allowlist: in.Allowlist, Attestations: in.Attestations})
			if err != nil {
				t.Fatalf("corrupt snapshot must degrade, not error: %v", err)
			}
			if st.SnapshotRestored {
				t.Fatal("stats claim a snapshot restore after corruption")
			}
			if st.TailRecords != int64(len(visits)) {
				t.Fatalf("degraded scan folded %d records, want %d", st.TailRecords, len(visits))
			}
			assertIndexEqual(t, tc.name, idx, ref.Index())

			// OpenLiveSink degrades the same way: rebuild the committed
			// prefix by scan, ready to keep folding.
			sink, lst, err := OpenLiveSink(path, &Input{Allowlist: in.Allowlist})
			if err != nil {
				t.Fatal(err)
			}
			if lst.SnapshotRestored {
				t.Fatal("sink claims a snapshot restore after corruption")
			}
			if got := sink.Live().Visits(); got != len(visits) {
				t.Fatalf("rebuilt sink folded %d visits, want %d", got, len(visits))
			}
		})
	}

	// A snapshot folded under a different allow-list must not restore:
	// the allowed bit is baked in at fold time.
	path := filepath.Join(t.TempDir(), "live.jsonl.gz")
	foldJournal(t, path, visits, 5, &Input{Allowlist: in.Allowlist})
	other := attestation.NewAllowlist("unrelated.example")
	if live, _ := LoadIndexSnapshot(path, &Input{Allowlist: other}); live != nil {
		t.Fatal("snapshot restored under a different allow-list")
	}
}

// TestLiveSinkResumeAcrossCheckpoint pins the resume protocol end to
// end at the dataset layer: fold a prefix through a sink, "crash" (no
// final checkpoint), reopen with OpenLiveSink + ResumeJournal, finish,
// and demand the final index equals the uninterrupted build.
func TestLiveSinkResumeAcrossCheckpoint(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits[:600]
	const every = 4
	path := filepath.Join(t.TempDir(), "resume.jsonl.gz")

	// Phase 1: write a prefix and abort without the final checkpoint —
	// some committed sites, some salvageable tail.
	sink := NewLiveSink(path, &Input{Allowlist: in.Allowlist})
	jw, err := dataset.CreateJournal(path, dataset.JournalOptions{CheckpointEvery: every, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	cut := len(visits) / 2
	written := 0
	for i := 0; i < len(visits) && written < cut; i++ {
		if err := jw.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		written++
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw.Abort(); err != nil {
		t.Fatal(err)
	}
	m := durable.LoadManifest(path)
	if m == nil || m.Records == 0 {
		t.Fatal("aborted journal has no checkpoint to resume from")
	}

	// Phase 2: resume. The sink restores the snapshot (O(snapshot), no
	// journal bytes); ResumeJournal replays the salvaged tail through it.
	sink2, lst, err := OpenLiveSink(path, &Input{Allowlist: in.Allowlist})
	if err != nil {
		t.Fatal(err)
	}
	if !lst.SnapshotRestored {
		t.Fatal("resume did not restore the index snapshot")
	}
	if lst.BytesRead != 0 {
		t.Fatalf("snapshot restore read %d journal bytes, want 0", lst.BytesRead)
	}
	if int64(sink2.Live().Visits()) != m.Records {
		t.Fatalf("restored sink covers %d records, manifest commits %d", sink2.Live().Visits(), m.Records)
	}
	jw2, st, err := dataset.ResumeJournal(path, dataset.JournalOptions{CheckpointEvery: every, Observer: sink2})
	if err != nil {
		t.Fatal(err)
	}
	if int64(sink2.Live().Visits()) != m.Records+st.RecordsKept {
		t.Fatalf("after tail replay the sink covers %d records, want %d",
			sink2.Live().Visits(), m.Records+st.RecordsKept)
	}

	// Finish the remaining records, skipping sites already durable.
	done := make(map[string]bool, len(st.Completed))
	for s := range st.Completed {
		done[s] = true
	}
	for i := 0; i < len(visits); i++ {
		if visits[i].Rank <= st.WatermarkRank || done[visits[i].Site] {
			continue
		}
		if err := jw2.Write(&visits[i]); err != nil {
			t.Fatal(err)
		}
		if i+1 == len(visits) || visits[i+1].Site != visits[i].Site {
			if err := jw2.SiteCompleted(visits[i].Rank, visits[i].Site); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := jw2.Close(); err != nil {
		t.Fatal(err)
	}

	full := &Input{
		Data:         &dataset.Dataset{Visits: visits},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}
	assertIndexEqual(t, "resumed sink", sink2.Live().Snapshot(in), full.Index())
}

// liveSnapshotSHA256 is the digest of the .idx file the chaos fixture
// folds to through a checkpointed journal. The file is the
// accumulator's JSON encoding, so any change to a field, a tag, the
// field order or the empty-map encoding moves it.
const liveSnapshotSHA256 = "f1b6ddcd739fb879cab4d219053543af1ad4c9e206880807c9211e9e7a975981"

// TestLiveSnapshotBytes pins the .idx bytes, not just the index they
// restore to: the digest of the file a LiveSink writes for a fixed
// fixture, and a decode/re-encode round trip that reproduces the file
// byte for byte (no field is dropped or renamed on either side).
func TestLiveSnapshotBytes(t *testing.T) {
	in := chaosInput(t)
	path := filepath.Join(t.TempDir(), "pin.jsonl")
	foldJournal(t, path, in.Data.Visits, 7, &Input{Allowlist: in.Allowlist})

	data, err := os.ReadFile(IndexSnapshotPath(path))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != liveSnapshotSHA256 {
		t.Errorf(".idx sha256 = %s, want %s", got, liveSnapshotSHA256)
	}

	snap, err := decodeLiveSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("decode/re-encode changed the .idx bytes (%d -> %d bytes)", len(data), buf.Len())
	}
}

// TestSnapshotIsolatedFromLaterFolds pins that a finalized Index shares
// no state with the accumulator it came from: an Index taken at prefix
// p still equals the batch build of that prefix after the live index
// has folded the rest of the campaign.
func TestSnapshotIsolatedFromLaterFolds(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	p := len(visits) / 3

	live := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for i := 0; i < p; i++ {
		live.Fold(&visits[i])
	}
	early := live.Snapshot(in)
	for i := p; i < len(visits); i++ {
		live.Fold(&visits[i])
	}

	prefixIn := &Input{
		Data:         &dataset.Dataset{Visits: visits[:p]},
		Allowlist:    in.Allowlist,
		Attestations: in.Attestations,
	}
	assertIndexEqual(t, "snapshot after later folds", early, prefixIn.Index())
}

// TestMergeIsolatedFromPartials pins that MergeShardIndexes neither
// mutates its partials nor aliases them: after merging two live
// indexes' Shard() partials, folding more records into one of them
// leaves the merged Index equal to the batch build of the merged
// visits, and the folded live index equal to the batch build of its
// own records.
func TestMergeIsolatedFromPartials(t *testing.T) {
	in := chaosInput(t)
	visits := in.Data.Visits
	a, b := len(visits)/3, 2*len(visits)/3

	first := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for i := 0; i < a; i++ {
		first.Fold(&visits[i])
	}
	second := NewLiveIndex(&Input{Allowlist: in.Allowlist})
	for i := a; i < b; i++ {
		second.Fold(&visits[i])
	}
	merged, err := MergeShardIndexes(&Input{Allowlist: in.Allowlist, Attestations: in.Attestations},
		first.Shard(), second.Shard())
	if err != nil {
		t.Fatal(err)
	}
	for i := b; i < len(visits); i++ {
		first.Fold(&visits[i])
	}

	batch := func(vs ...[]dataset.Visit) *Index {
		var all []dataset.Visit
		for _, v := range vs {
			all = append(all, v...)
		}
		return (&Input{
			Data:         &dataset.Dataset{Visits: all},
			Allowlist:    in.Allowlist,
			Attestations: in.Attestations,
		}).Index()
	}
	assertIndexEqual(t, "merged index after a partial kept folding", merged, batch(visits[:b]))
	assertIndexEqual(t, "partial after the merge", first.Snapshot(in), batch(visits[:a], visits[b:]))
	assertIndexEqual(t, "untouched partial after the merge", second.Snapshot(in), batch(visits[a:b]))
}
