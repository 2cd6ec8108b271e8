package analysis

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"github.com/netmeasure/topicscope/internal/attestation"
	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/durable"
	"github.com/netmeasure/topicscope/internal/etld"
)

// LiveIndex is the analysis index in its incremental form: an indexShard
// fed one committed record at a time instead of by a batch pass. Every
// aggregate merges commutatively (see the Index determinism invariant),
// so folding the records in rank order as the crawler emits them yields
// the same accumulator a post-hoc BuildIndex pass would — the
// incremental-parity test pins that for every prefix of a campaign.
//
// A LiveIndex folds while the campaign runs, long before the attestation
// sweep exists; classification is split so that only the allow-list bit
// is baked in at fold time and Snapshot resolves attestation facts from
// whatever Input it is finalized against (see callerFacts).
//
// Not safe for concurrent use: the crawler's rank-ordered sink is a
// single goroutine, which is exactly what makes one-at-a-time folding
// deterministic for free.
type LiveIndex struct {
	in  *Input
	agg *indexShard
	// delta, on a LiveIndex that writes snapshots, also folds every
	// visit and is reset after each snapshot encode: its keys are the
	// ones that may have changed since, which is what lets the encoder
	// splice the previous encoding. Readers carry none.
	delta  *indexShard
	visits int
	enc    snapshotEncoder
}

// NewLiveIndex returns an empty fold accumulator. The input needs only
// the allow-list (classification) and optionally Metrics; Attestations
// may be nil — they are resolved at Snapshot time.
func NewLiveIndex(in *Input) *LiveIndex {
	return &LiveIndex{in: in, agg: newIndexShard(in, etld.NewCache())}
}

// Fold adds one visit record to the accumulator.
func (l *LiveIndex) Fold(v *dataset.Visit) {
	l.agg.add(v)
	if l.delta != nil {
		l.delta.add(v)
	}
	l.visits++
}

// Visits returns how many records have been folded.
func (l *LiveIndex) Visits() int { return l.visits }

// Callers returns every distinct calling party folded so far, sorted —
// the same set crawler.CallerDomains extracts from a collected dataset,
// so a live consumer can run the attestation sweep without the visits.
func (l *LiveIndex) Callers() []string {
	return slices.Sorted(maps.Keys(l.agg.Allowed))
}

// Shard exposes the accumulator as a mergeable partial for
// MergeShardIndexes, which never modifies or keeps a partial's state:
// folding may continue after the merge.
func (l *LiveIndex) Shard() *ShardIndex {
	return &ShardIndex{agg: l.agg, visits: l.visits}
}

// Snapshot finalizes the accumulator into a full Index against the
// given input (which supplies the allow-list block and the attestation
// checks) without consuming it: the Index is finalized from a copy (a
// fresh accumulator absorbing this one), so folding continues cleanly
// afterwards — the monitor renders a report every refresh while the
// campaign appends.
func (l *LiveIndex) Snapshot(in *Input) *Index {
	return newIndexShard(in, l.agg.cache).absorb(l.agg).finalize(in)
}

// LiveSnapshotVersion is the `<journal>.idx` schema version.
const LiveSnapshotVersion = 1

// IndexSnapshotPath derives the serialized-index sidecar path for a
// journal.
func IndexSnapshotPath(journalPath string) string { return journalPath + ".idx" }

// RemoveIndexSnapshot deletes a journal's index snapshot if present.
func RemoveIndexSnapshot(journalPath string) {
	os.Remove(IndexSnapshotPath(journalPath))
}

// liveSnapshot is the serialized form of a LiveIndex, written beside the
// journal at every checkpoint: a header, then the accumulator's own JSON
// encoding (indexShard's tagged fields). Everything is a JSON map or
// counter — map keys are sorted, so the bytes are deterministic for a
// given accumulator state. snapshotEncoder writes it byte for byte as
// encoding/json would; encoding/json reads it back. The header ties the
// snapshot to one exact committed journal state (records + payload CRC)
// and to the allow-list the classification was folded against; any
// mismatch on load degrades the reader to a full scan, mirroring the
// manifest's accelerator-never-authority contract.
type liveSnapshot struct {
	Version      int    `json:"version"`
	Journal      string `json:"journal"`
	Records      int64  `json:"records"`
	PayloadCRC   uint32 `json:"payload_crc"`
	AllowlistCRC uint32 `json:"allowlist_crc"`
	Visits       int    `json:"visits"`

	// Embedded by value: encoding/json cannot decode into an embedded
	// pointer to an unexported struct type.
	indexShard
}

// allowlistCRC fingerprints the allow-list a fold classified against, so
// a snapshot folded under one list is never finalized under another.
func allowlistCRC(allow *attestation.Allowlist) uint32 {
	if allow == nil {
		return 0
	}
	var crc uint32
	for _, d := range allow.Domains() {
		crc = crc32.Update(crc, crc32.IEEETable, []byte(d))
		crc = crc32.Update(crc, crc32.IEEETable, []byte{'\n'})
	}
	return crc
}

// decodeLiveSnapshot strictly decodes and validates snapshot bytes. It
// decodes straight into a fresh accumulator, so a map the file lacks is
// empty rather than nil; a map the file spells null, at any depth, is
// rejected — a fresh accumulator never writes one.
func decodeLiveSnapshot(data []byte) (*liveSnapshot, error) {
	snap := liveSnapshot{indexShard: *newIndexShard(nil, nil)}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("analysis: index snapshot: %w", err)
	}
	if hasNilMap(reflect.ValueOf(&snap.indexShard).Elem()) {
		return nil, fmt.Errorf("analysis: index snapshot: null map")
	}
	if snap.Version != LiveSnapshotVersion {
		return nil, fmt.Errorf("analysis: index snapshot: unsupported version %d", snap.Version)
	}
	if snap.Records < 0 || snap.Visits < 0 {
		return nil, fmt.Errorf("analysis: index snapshot: negative record count")
	}
	if snap.Records == 0 && snap.Visits > 0 {
		return nil, fmt.Errorf("analysis: index snapshot: %d visits with zero committed records", snap.Visits)
	}
	return &snap, nil
}

// hasNilMap reports whether v holds a nil map anywhere: as a field, as
// a map value, or inside a struct that is one.
func hasNilMap(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Map:
		if v.IsNil() {
			return true
		}
		if k := v.Type().Elem().Kind(); k == reflect.Map || k == reflect.Struct {
			for it := v.MapRange(); it.Next(); {
				if hasNilMap(it.Value()) {
					return true
				}
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			if hasNilMap(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// StoreSnapshot atomically writes the accumulator's serialized form
// beside the journal, tied to the given committed checkpoint. The
// snapshot shares the accumulator's maps (encoding reads, never
// writes), so the only cost is the encode, into a buffer the LiveIndex
// reuses from one checkpoint to the next; with a delta, the encode
// redoes only what was folded since the previous one.
func (l *LiveIndex) StoreSnapshot(journalPath string, ck durable.Checkpoint) error {
	data, err := l.encode(l.snapshot(journalPath, ck))
	if err != nil {
		return err
	}
	return durable.WriteFileAtomicFS(l.in.FS, IndexSnapshotPath(journalPath), func(w io.Writer) error {
		for _, b := range data {
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
		return nil
	})
}

// snapshot returns the accumulator's serialized form for a committed
// checkpoint. It shares the accumulator's maps.
func (l *LiveIndex) snapshot(journalPath string, ck durable.Checkpoint) *liveSnapshot {
	return &liveSnapshot{
		Version:      LiveSnapshotVersion,
		Journal:      filepath.Base(journalPath),
		Records:      ck.Records,
		PayloadCRC:   ck.PayloadCRC,
		AllowlistCRC: allowlistCRC(l.in.Allowlist),
		Visits:       l.visits,
		indexShard:   *l.agg,
	}
}

// encode encodes snap, splicing the previous encoding when the
// LiveIndex keeps a delta, and starts a fresh delta. The encoding is
// the concatenation of the returned chunks.
func (l *LiveIndex) encode(snap *liveSnapshot) ([][]byte, error) {
	data, err := l.enc.encode(snap, l.delta)
	if l.delta != nil {
		l.delta = newIndexShard(l.in, l.agg.cache)
	}
	return data, err
}

// SnapshotInfo describes a restored index snapshot.
type SnapshotInfo struct {
	// Records/PayloadCRC are the committed journal state the snapshot
	// covers.
	Records    int64
	PayloadCRC uint32
	// Visits is how many records were folded into it.
	Visits int
}

// LoadIndexSnapshot restores the live index a previous run serialized
// beside the journal. It is an accelerator with the manifest's
// contract: missing, unreadable, corrupt, version-skewed files — or a
// snapshot tied to a different journal name, a different committed
// state than the current manifest, or a different allow-list — all
// return nil, and the caller falls back to folding from byte 0. It
// never errors.
func LoadIndexSnapshot(journalPath string, in *Input) (*LiveIndex, *SnapshotInfo) {
	m := durable.LoadManifestFS(in.FS, journalPath)
	if m == nil {
		return nil, nil
	}
	fsys := in.FS
	if fsys == nil {
		fsys = durable.OS
	}
	data, err := fsys.ReadFile(IndexSnapshotPath(journalPath))
	if err != nil {
		return nil, nil
	}
	snap, err := decodeLiveSnapshot(data)
	if err != nil {
		return nil, nil
	}
	if snap.Journal != filepath.Base(journalPath) {
		return nil, nil
	}
	if snap.Records != m.Records || snap.PayloadCRC != m.PayloadCRC {
		return nil, nil
	}
	if snap.AllowlistCRC != allowlistCRC(in.Allowlist) {
		return nil, nil
	}
	agg := &snap.indexShard
	agg.in, agg.cache = in, etld.NewCache()
	l := &LiveIndex{in: in, agg: agg, visits: snap.Visits}
	return l, &SnapshotInfo{
		Records:    snap.Records,
		PayloadCRC: snap.PayloadCRC,
		Visits:     snap.Visits,
	}
}

// LiveStats reports how a live index was (re)assembled and what it cost
// in journal bytes — the O(tail + snapshot) guarantee the tests pin.
type LiveStats struct {
	// SnapshotRestored reports whether the serialized index was usable;
	// false means the reader degraded to a full scan.
	SnapshotRestored bool
	// SnapshotRecords is the committed record count the restored
	// snapshot covered (0 when none).
	SnapshotRecords int64
	// TailRecords counts the records folded from the journal itself.
	TailRecords int64
	// BytesRead is the raw journal bytes read off disk.
	BytesRead int64
	// Truncated reports a torn tail after the last valid record.
	Truncated bool
}

// LoadLiveIndex assembles the fold accumulator for a (possibly still
// growing) journal: restore the checkpoint snapshot and fold only the
// tail past the committed offset — O(tail + snapshot) bytes — or
// degrade to a full folding scan when the snapshot is unusable. The
// returned accumulator is not finalized: call Callers() to run the
// attestation sweep, then Snapshot(in) against an input carrying the
// checks. LoadLive wraps both steps when the input is already complete.
func LoadLiveIndex(journalPath string, in *Input) (*LiveIndex, *LiveStats, error) {
	st := &LiveStats{}
	live, info := LoadIndexSnapshot(journalPath, in)
	var offset int64
	if live != nil {
		st.SnapshotRestored = true
		st.SnapshotRecords = info.Records
		// The manifest validated against the snapshot moments ago; a
		// racing checkpoint can only move it forward, and folding from
		// the snapshot's own committed offset stays correct either way.
		if m := durable.LoadManifest(journalPath); m != nil && m.Records == info.Records {
			offset = m.Offset
		}
	}
	if live == nil {
		live = NewLiveIndex(in)
	}
	if offset == 0 && st.SnapshotRestored {
		// Snapshot usable but its offset unknown (manifest raced away):
		// degrade to the full scan rather than double-fold.
		live = NewLiveIndex(in)
		st.SnapshotRestored = false
		st.SnapshotRecords = 0
	}

	if err := foldTail(journalPath, offset, live, -1, st); err != nil {
		return nil, nil, err
	}
	in.Metrics.Add("analysis_live_tail_records_total", st.TailRecords)
	return live, st, nil
}

// foldTail folds a journal's records from byte offset on into live,
// stopping once live covers limit records (limit < 0: no limit), and
// records what it folded and read in st.
func foldTail(journalPath string, offset int64, live *LiveIndex, limit int64, st *LiveStats) error {
	rc, cr, err := durable.OpenTail(journalPath, offset)
	if err != nil {
		return err
	}
	defer rc.Close()
	scan, err := durable.ScanRecords(rc, func(payload []byte) error {
		if limit >= 0 && int64(live.visits) >= limit {
			return nil
		}
		var v dataset.Visit
		if uerr := json.Unmarshal(payload, &v); uerr != nil {
			return fmt.Errorf("analysis: decoding journal record: %w", uerr)
		}
		live.Fold(&v)
		st.TailRecords++
		return nil
	})
	st.BytesRead = cr.BytesRead()
	st.Truncated = scan.Truncated
	return err
}

// LoadLive assembles and finalizes the analysis index for a journal in
// O(tail + snapshot) bytes (see LoadLiveIndex). The returned Index is
// finalized against in (allow-list block, attestation checks) and
// equals what BuildIndex over the journal's full record stream builds;
// adopt it with in.AdoptIndex to serve Compute*/Run queries.
func LoadLive(journalPath string, in *Input) (*Index, *LiveStats, error) {
	live, st, err := LoadLiveIndex(journalPath, in)
	if err != nil {
		return nil, nil, err
	}
	return live.Snapshot(in), st, nil
}

// LiveSink is the fold consumer hooked into the crawler's rank-ordered
// sink: it implements dataset.VisitObserver, folding every appended
// record into a LiveIndex and serializing the accumulator beside the
// journal at every committed checkpoint. The snapshot write rides the
// same cadence as the manifest, so `<out>.idx` always describes a state
// the manifest can vouch for.
type LiveSink struct {
	path string
	idx  *LiveIndex
}

// NewLiveSink returns a sink for a fresh journal.
func NewLiveSink(journalPath string, in *Input) *LiveSink {
	return newLiveSink(journalPath, NewLiveIndex(in))
}

// newLiveSink attaches l to a sink, which makes it keep a delta: every
// snapshot after the first splices the previous encoding.
func newLiveSink(journalPath string, l *LiveIndex) *LiveSink {
	l.delta = newIndexShard(l.in, l.agg.cache)
	return &LiveSink{path: journalPath, idx: l}
}

// OpenLiveSink returns a sink for a journal about to be resumed:
// restore the snapshot when it matches the manifest (O(snapshot)), else
// fold the committed prefix from byte 0 (the degrade path — salvage,
// never error). Records past the committed checkpoint are NOT folded
// here: ResumeJournal re-appends the kept tail groups through the
// observer, which is where they reach the sink.
func OpenLiveSink(journalPath string, in *Input) (*LiveSink, *LiveStats, error) {
	st := &LiveStats{}
	if live, info := LoadIndexSnapshot(journalPath, in); live != nil {
		st.SnapshotRestored = true
		st.SnapshotRecords = info.Records
		in.Metrics.Add("analysis_index_snapshots_restored_total", 1)
		return newLiveSink(journalPath, live), st, nil
	}
	live := NewLiveIndex(in)
	m := durable.LoadManifest(journalPath)
	if m == nil || m.Records == 0 {
		// Nothing committed (or no usable manifest, in which case the
		// resume's own salvaging scan replays everything through the
		// observer): start empty.
		return newLiveSink(journalPath, live), st, nil
	}
	if err := foldTail(journalPath, 0, live, m.Records, st); err != nil {
		return nil, nil, err
	}
	in.Metrics.Add("analysis_index_snapshot_rebuilds_total", 1)
	return newLiveSink(journalPath, live), st, nil
}

// Live returns the sink's accumulator.
func (s *LiveSink) Live() *LiveIndex { return s.idx }

// ObserveVisit folds one appended record.
func (s *LiveSink) ObserveVisit(v *dataset.Visit) {
	s.idx.Fold(v)
	s.idx.in.Metrics.Add("analysis_live_visits_folded_total", 1)
}

// ObserveCheckpoint serializes the accumulator for the committed state.
// A sink attached mid-journal (fold count out of step with the commit)
// writes nothing — a snapshot must never describe records it did not
// fold. The snapshot is an accelerator: a storage fault while writing
// it is counted and absorbed (readers degrade to a full fold), never
// surfaced as a checkpoint failure.
func (s *LiveSink) ObserveCheckpoint(ck durable.Checkpoint) error {
	if int64(s.idx.visits) != ck.Records {
		return nil
	}
	if err := s.idx.StoreSnapshot(s.path, ck); err != nil {
		s.idx.in.Metrics.Add("storage_accelerator_write_failures_total", 1, "artifact", "snapshot")
		return nil
	}
	s.idx.in.Metrics.Add("analysis_index_snapshots_written_total", 1)
	return nil
}
