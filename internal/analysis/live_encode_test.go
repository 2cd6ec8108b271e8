package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"math/rand/v2"
	"reflect"
	"strconv"
	"testing"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/crawler"
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
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := enc.encode(snap)
	if err != nil {
		t.Fatal(err)
	}
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

// BenchmarkStoreSnapshot encodes the accumulator of a 2,000-site
// campaign with a reused encoder — the `.idx` body written at a
// campaign's final checkpoint, without the file write.
func BenchmarkStoreSnapshot(b *testing.B) {
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
	live := NewLiveIndex(&Input{Allowlist: allow})
	for i := range res.Data.Visits {
		live.Fold(&res.Data.Visits[i])
	}
	snap := &liveSnapshot{
		Version:    LiveSnapshotVersion,
		Journal:    "crawl.jsonl",
		Records:    int64(live.visits),
		Visits:     live.visits,
		indexShard: *live.agg,
	}
	data, err := live.enc.encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := live.enc.encode(snap); err != nil {
			b.Fatal(err)
		}
	}
}
