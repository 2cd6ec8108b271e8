package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/crawler"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/webserver"
	"github.com/netmeasure/topicscope/internal/webworld"
)

// snapshotGen fills a liveSnapshot with random values by reflection, so
// a new accumulator field is covered without touching the tests.
type snapshotGen struct {
	r    *rand.Rand
	keys []string // every string, map keys included, is drawn from keys
	ints []int    // every int map key is drawn from ints
}

// fill sets v to a random value of its type, recursing through structs
// (the embedded accumulator included) and maps. Maps hold up to five
// entries and are nil one time in eight, at any depth.
func (g *snapshotGen) fill(v reflect.Value) {
	switch {
	case v.Kind() == reflect.Bool:
		v.SetBool(g.r.IntN(4) != 0)
	case v.CanInt():
		v.SetInt(int64(g.r.IntN(1<<20)) - 1000)
	case v.CanUint():
		v.SetUint(uint64(g.r.Uint32()))
	case v.Kind() == reflect.String:
		v.SetString(g.keys[g.r.IntN(len(g.keys))])
	case v.Kind() == reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() || f.Anonymous {
				g.fill(v.Field(i))
			}
		}
	case v.Kind() == reflect.Map:
		if g.r.IntN(8) == 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMap(v.Type())
		for range g.r.IntN(6) {
			k := reflect.New(v.Type().Key()).Elem()
			if k.CanInt() {
				k.SetInt(int64(g.ints[g.r.IntN(len(g.ints))]))
			} else {
				g.fill(k)
			}
			e := reflect.New(v.Type().Elem()).Elem()
			g.fill(e)
			m.SetMapIndex(k, e)
		}
		v.Set(m)
	default:
		panic("snapshotGen: unhandled kind " + v.Kind().String())
	}
}

func (g *snapshotGen) snapshot() *liveSnapshot {
	var snap liveSnapshot
	g.fill(reflect.ValueOf(&snap).Elem())
	return &snap
}

// assertEncodesLikeStdlib checks the encoder against its oracle:
// json.Marshal plus the newline json.Encoder ends with.
func assertEncodesLikeStdlib(t *testing.T, enc *snapshotEncoder, snap *liveSnapshot) {
	t.Helper()
	got, err := enc.encode(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertStdlibBytes(t, bytes.Join(got, nil), snap)
}

// assertStdlibBytes checks that got is snap's encoding/json encoding.
func assertStdlibBytes(t *testing.T, got []byte, snap *liveSnapshot) {
	t.Helper()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoding differs from encoding/json at byte %d:\n got %.120q\nwant %.120q", i, got[i:], want[i:])
	}
}

// TestSnapshotEncoderMatchesStdlib pins the direct encoder to
// encoding/json on random accumulators: every field set, sets holding
// false values, nil maps at every depth, keys that need escaping and
// int keys 1–120 (whose string order differs from their numeric order).
func TestSnapshotEncoderMatchesStdlib(t *testing.T) {
	g := &snapshotGen{r: rand.New(rand.NewPCG(13, 1))}
	for _, k := range []string{
		"", "a", "b", "example.com", "ads.example.co.uk", "9", "10", "é",
		"日本", "<script>", "a&b", `quo"te`, `back\slash`, "tab\tnl\n",
		"\x00\x01\x1f\x7f", "\b\f\r", "\u2028\u2029", "\xff", "a\xc3", "\U0001F600",
	} {
		g.keys = append(g.keys, k)
	}
	for i := 1; i <= 120; i++ {
		g.ints = append(g.ints, i)
	}
	var enc snapshotEncoder // reused: buffer and scratch carry over
	for i := range 300 {
		snap := g.snapshot()
		t.Run(strconv.Itoa(i), func(t *testing.T) { assertEncodesLikeStdlib(t, &enc, snap) })
	}
}

// FuzzSnapshotEncode feeds arbitrary key strings and ints through every
// field of a random accumulator and holds the encoder to encoding/json.
func FuzzSnapshotEncode(f *testing.F) {
	f.Add("example.com", "<a&b>\u2028", 9, 10)
	f.Add("\xff\x00\"\\", "", -3, 120)
	f.Add("日本", "\t\x7f", 0, -1<<62)
	var enc snapshotEncoder
	f.Fuzz(func(t *testing.T, a, b string, i, j int) {
		h := fnv.New64a()
		h.Write([]byte(a + "\x00" + b))
		g := &snapshotGen{
			r:    rand.New(rand.NewPCG(h.Sum64(), uint64(i)^uint64(j))),
			keys: []string{a, b, a + b},
			ints: []int{i, j, i ^ j},
		}
		assertEncodesLikeStdlib(t, &enc, g.snapshot())
	})
}

// benchCampaign crawls the 2,000-site seed-1 world the snapshot
// benchmarks fold.
func benchCampaign(b *testing.B) (*attestation.Allowlist, []dataset.Visit) {
	world := webworld.Generate(webworld.Config{Seed: 1, NumSites: 2000})
	server := webserver.New(world, nil)
	allow := attestation.NewAllowlist(world.Catalog.AllowedDomains()...)
	c := crawler.New(crawler.Config{
		Client:             server.Client(),
		ReferenceAllowlist: allow,
		Workers:            4,
		Collect:            true,
	})
	res, err := c.Run(context.Background(), world.List())
	if err != nil {
		b.Fatal(err)
	}
	return allow, res.Data.Visits
}

// BenchmarkStoreSnapshot encodes the accumulator of a 2,000-site
// campaign with a reused encoder — the `.idx` body written at a
// campaign's final checkpoint, without the file write. encode is given no
// delta, so this is the full-encode path (the first snapshot of a run,
// or the first after a restore): every iteration drops and rebuilds the
// memo. BenchmarkSnapshotCadence measures the incremental path.
func BenchmarkStoreSnapshot(b *testing.B) {
	allow, visits := benchCampaign(b)
	live := NewLiveIndex(&Input{Allowlist: allow})
	for i := range visits {
		live.Fold(&visits[i])
	}
	snap := &liveSnapshot{
		Version:    LiveSnapshotVersion,
		Journal:    "crawl.jsonl",
		Records:    int64(live.visits),
		Visits:     live.visits,
		indexShard: *live.agg,
	}
	data, err := live.enc.encode(snap, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bytes.Join(data, nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := live.enc.encode(snap, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotCadence is a journalled campaign's snapshot work: it
// folds a 2,000-site campaign into a sink's LiveIndex and encodes the
// `.idx` body after every 25 completed sites (the default checkpoint
// cadence), without the file writes. ns/op, B/op and allocs/op are per
// checkpoint, the second fold into the delta included.
func BenchmarkSnapshotCadence(b *testing.B) {
	allow, visits := benchCampaign(b)
	var windows [][]dataset.Visit
	for lo, sites := 0, 0; lo < len(visits); {
		hi := lo
		for hi < len(visits) && sites < dataset.DefaultCheckpointEvery {
			hi++
			if hi == len(visits) || visits[hi].Site != visits[hi-1].Site {
				sites++
			}
		}
		windows = append(windows, visits[lo:hi])
		lo, sites = hi, 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		b.StopTimer()
		live := newLiveSink("bench.jsonl", NewLiveIndex(&Input{Allowlist: allow})).Live()
		b.StartTimer()
		for _, w := range windows {
			if n == b.N {
				break
			}
			for i := range w {
				live.Fold(&w[i])
			}
			snap := live.snapshot("bench.jsonl", durable.Checkpoint{Records: int64(live.visits)})
			if _, err := live.encode(snap); err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
}

// stdlibCheck wraps a LiveSink and, after each snapshot it writes,
// holds the `.idx` file to json.Marshal of the snapshot it describes.
type stdlibCheck struct {
	t      *testing.T
	path   string
	sink   *LiveSink
	checks int
}

func (c *stdlibCheck) ObserveVisit(v *dataset.Visit) { c.sink.ObserveVisit(v) }

func (c *stdlibCheck) ObserveCheckpoint(ck durable.Checkpoint) error {
	if err := c.sink.ObserveCheckpoint(ck); err != nil {
		return err
	}
	got, err := os.ReadFile(IndexSnapshotPath(c.path))
	if err != nil {
		c.t.Fatal(err)
	}
	assertStdlibBytes(c.t, got, c.sink.Live().snapshot(c.path, ck))
	c.checks++
	return nil
}

// writeSites appends visits through jw, completing each site group as
// the crawler would.
func writeSites(t *testing.T, jw *dataset.JournalWriter, visits []dataset.Visit) {
	t.Helper()
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
}

// TestIncrementalSnapshotMatchesStdlib pins the incremental encoder to
// encoding/json at every checkpoint of a real campaign: the chaos
// fixture is folded through a checkpointed journal and a LiveSink at
// cadences of 1, 2, 7 and 25 sites, and every `.idx` the sink writes
// must equal json.Marshal of its snapshot. Midway the journal is closed
// and resumed through OpenLiveSink, so the full encode after a restore
// (LoadIndexSnapshot) and the spliced encodes that follow are covered.
// The one-site cadence folds a shorter prefix to keep the test quick.
func TestIncrementalSnapshotMatchesStdlib(t *testing.T) {
	in := chaosInput(t)
	for _, tc := range []struct{ every, visits int }{
		{1, 400}, {2, 800}, {7, len(in.Data.Visits)}, {25, len(in.Data.Visits)},
	} {
		t.Run("every="+strconv.Itoa(tc.every), func(t *testing.T) {
			visits := in.Data.Visits[:min(tc.visits, len(in.Data.Visits))]
			for len(visits) > 1 && visits[len(visits)-1].Site == visits[len(visits)-2].Site {
				visits = visits[:len(visits)-1] // end on a complete site
			}
			split := len(visits) / 2
			for split < len(visits) && visits[split].Site == visits[split-1].Site {
				split++
			}
			path := filepath.Join(t.TempDir(), "inc.jsonl")
			liveIn := &Input{Allowlist: in.Allowlist}

			check := &stdlibCheck{t: t, path: path, sink: NewLiveSink(path, liveIn)}
			jw, err := dataset.CreateJournal(path, dataset.JournalOptions{CheckpointEvery: tc.every, Observer: check})
			if err != nil {
				t.Fatal(err)
			}
			writeSites(t, jw, visits[:split])
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			before := check.checks

			sink, st, err := OpenLiveSink(path, liveIn)
			if err != nil {
				t.Fatal(err)
			}
			if !st.SnapshotRestored {
				t.Fatal("resume did not restore the index snapshot")
			}
			check.sink = sink
			jw, _, err = dataset.ResumeJournal(path, dataset.JournalOptions{CheckpointEvery: tc.every, Observer: check})
			if err != nil {
				t.Fatal(err)
			}
			writeSites(t, jw, visits[split:])
			if err := jw.Close(); err != nil {
				t.Fatal(err)
			}
			if before < 3 || check.checks-before < 3 {
				t.Fatalf("checked %d snapshots before the restore and %d after, want at least 3 each", before, check.checks-before)
			}
			if sink.Live().Visits() != len(visits) {
				t.Fatalf("sink folded %d visits, want %d", sink.Live().Visits(), len(visits))
			}
		})
	}
}

// fuzzVisits decodes a fuzz input, three bytes a visit, into a visit
// sequence over a small vocabulary, so sets and counters grow past the
// memoized size while keys recur. Sites, hosts, callers, CMPs and
// languages include the two fuzzed strings and keys that need escaping;
// ranks and epochs run past 9, so their decimal order differs from
// their numeric order.
func fuzzVisits(data []byte, a, b string) []dataset.Visit {
	names := []string{
		a, b, a + b, "<x>&y", `q"b\s`, "é", "\xff", "\u2028", "tab\t",
		"s0.com", "s1.com", "s2.com", "s3.com", "s4.com", "s5.com", "s6.com",
		"s7.com", "s8.com", "s9.com", "s10.com", "s11.com", "s12.com",
		"ads.example.com", "cdn.example.co.uk", "tracker.net", "gtm.example",
	}
	name := func(i int) string { return names[i%len(names)] }
	types := []dataset.CallType{dataset.CallJavaScript, dataset.CallFetch, dataset.CallIframe}
	var visits []dataset.Visit
	for ; len(data) >= 3; data = data[3:] {
		f, s, r := int(data[0]), int(data[1]), int(data[2])
		v := dataset.Visit{
			Site:           name(s),
			Rank:           (s*7 + f) % 40,
			Phase:          dataset.BeforeAccept,
			Success:        f&2 != 0,
			Partial:        f&4 != 0,
			BannerDetected: f&8 != 0,
			Accepted:       f&16 != 0,
			Retries:        f >> 6,
			FetchedAt:      time.Unix(int64(r>>4)*epochSeconds+1, 0),
		}
		if f&1 != 0 {
			v.Phase = dataset.AfterAccept
		}
		if f&32 != 0 {
			v.CMP, v.BannerLanguage = name(f+r), name(r)
		}
		if !v.Success {
			v.Error = name(f + s)
		}
		for j := range r & 3 {
			v.Resources = append(v.Resources, dataset.Resource{
				Host:       name(r>>4 + 5*j),
				ThirdParty: (f>>j)&1 != 0,
				Failed:     j == 2 && f&64 != 0,
			})
		}
		for j := range (r >> 2) & 3 {
			v.Calls = append(v.Calls, dataset.TopicsCall{Caller: name(r + s + 3*j), Type: types[(f+j)%len(types)]})
		}
		visits = append(visits, v)
	}
	return visits
}

// FuzzIncrementalSnapshot folds fuzzed visit sequences into a sink's
// LiveIndex and encodes a snapshot every `cadence` visits: each encode
// splices the previous one and must equal json.Marshal of the snapshot.
func FuzzIncrementalSnapshot(f *testing.F) {
	seed := make([]byte, 150)
	for i := range seed {
		seed[i] = byte(i*37 + i/7)
	}
	f.Add(seed, "example.com", "<a&b>", uint8(3))
	f.Add(seed[30:], "\xff\x00", "日本", uint8(0))
	f.Add(bytes.Repeat([]byte{0x12, 7, 9, 2, 5, 3, 1}, 20), "", "a", uint8(9))
	// Nine hosts, each on a growing list of successful sites: their
	// presence sets, and the map holding them, pass the memoized size
	// and keep being spliced.
	var spread []byte
	for i := range 60 {
		spread = append(spread, 0x0a, byte(i), byte(0x13+0x10*(i%3)))
	}
	f.Add(spread, "a.example", "b.example", uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, a, b string, cadence uint8) {
		allow := attestation.NewAllowlist(a, "s1.com", "s3.com", "tracker.net", "<x>&y")
		live := newLiveSink("fuzz.jsonl", NewLiveIndex(&Input{Allowlist: allow})).Live()
		every := 1 + int(cadence)%30
		visits := fuzzVisits(data, a, b)
		for i := range visits {
			live.Fold(&visits[i])
			if (i+1)%every != 0 && i+1 != len(visits) {
				continue
			}
			snap := live.snapshot("fuzz.jsonl", durable.Checkpoint{Records: int64(i + 1)})
			got, err := live.encode(snap)
			if err != nil {
				t.Fatal(err)
			}
			assertStdlibBytes(t, bytes.Join(got, nil), snap)
		}
	})
}
