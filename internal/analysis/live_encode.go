package analysis

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/netmeasure/topicscope/internal/dataset"
	"github.com/netmeasure/topicscope/internal/stats"
)

// snapshotEncoder writes a liveSnapshot as exactly the bytes
// json.NewEncoder(w).Encode writes for it — TestLiveSnapshotBytes and the
// encoder property and fuzz tests pin that — without encoding/json's
// per-value reflection and allocations. It keeps no list of fields: the
// structs' JSON tags are read once by reflection, so a new tagged
// aggregate needs no change here. A map shape the accumulator already
// uses takes a typed path; any other field is encoded by json.Marshal on
// its own.
//
// The encode is incremental. Every map of at least memoMinLen keys is
// memoized by identity: its sorted keys, where each `"key":value`
// fragment starts, and its encoded bytes. Given a delta — an accumulator
// holding what was folded since the previous encode — a memoized map
// re-encodes only the fragments whose keys the delta holds (recursing
// with the delta's nested map), merges its new keys in, and copies each
// untouched run of fragments from its previous encoding with one append.
// Without a delta the memo is dropped and rebuilt: that full encode is
// the same splice, with nothing memoized. Soundness rests on two
// accumulator invariants (see DESIGN.md "Incremental analysis").
//
// The output is a list of chunks rather than one buffer: a memoized map
// that no memoized map encloses goes out as its memo's bytes, so an
// unchanged one is never copied, and the buffer holds little more than
// the map being spliced.
//
// Each LiveIndex owns its encoder: in-process shards run several sinks
// at once.
type snapshotEncoder struct {
	buf    []byte
	err    error
	fields map[reflect.Type][]snapshotField
	// memo maps a memoized map's address to its *mapMemo.
	memo map[uintptr]any

	out  [][]byte // the encoding so far, up to buf[glue:]
	glue int
	// depth counts the memoized maps enclosing the value being encoded:
	// those need its bytes in the buffer.
	depth int
}

// memoMinLen is the smallest map the encoder memoizes; a smaller one is
// cheaper to re-encode than to splice.
const memoMinLen = 8

// mapMemo is a map's encoding at the last encode that visited it.
type mapMemo[K comparable] struct {
	m    any    // the map itself, so its address is not reused while memoized
	keys []K    // sorted as encoding/json sorts them
	off  []int  // off[i]: where fragment i starts in enc; off[len(keys)] == len(enc)
	enc  []byte // '{' fragments joined by ',' '}'

	// Scratch reused from one splice to the next.
	touched []int
	added   []K
	spans   []span
}

// span is one stretch of a splice's output, starting at byte at: n
// fragments of the previous encoding from fragment old on, or, when n is
// 0, the fragment of the new key added[old].
type span struct{ old, n, at int }

// keyCodec is how encoding/json orders and writes a map's keys.
type keyCodec[K comparable] struct {
	compare   func(a, b K) int
	appendKey func(dst []byte, k K) []byte
}

func stringKeys[K ~string]() keyCodec[K] {
	return keyCodec[K]{
		compare:   func(a, b K) int { return strings.Compare(string(a), string(b)) },
		appendKey: func(dst []byte, k K) []byte { return appendJSONString(dst, string(k)) },
	}
}

// intKeys quotes int keys and sorts them as decimal strings, so "10"
// precedes "9".
func intKeys() keyCodec[int] {
	return keyCodec[int]{
		compare: compareDecimal,
		appendKey: func(dst []byte, k int) []byte {
			dst = append(dst, '"')
			dst = strconv.AppendInt(dst, int64(k), 10)
			return append(dst, '"')
		},
	}
}

// snapshotField is one JSON field of a struct: its index path (through
// inlined embedded structs), its `"name":` prefix, and whether its type
// encodes itself (a json.Marshaler or encoding.TextMarshaler), which
// sends it to json.Marshal.
type snapshotField struct {
	index   []int
	name    []byte
	marshal bool
}

// encode returns the chunks of snap's encoding followed by the newline
// json.Encoder ends with; they are valid until the next encode. delta
// is the accumulator of everything folded into snap since the previous
// encode. A nil delta says nothing about what changed: the memo is
// dropped and everything is encoded in full, which rebuilds it. On
// error the memo is dropped too, so the next encode is full.
func (e *snapshotEncoder) encode(snap *liveSnapshot, delta *indexShard) ([][]byte, error) {
	var d liveSnapshot
	if delta == nil {
		clear(e.memo)
	} else {
		d.indexShard = *delta
	}
	e.buf, e.err, e.out, e.glue = e.buf[:0], nil, e.out[:0], 0
	e.appendStruct(reflect.ValueOf(snap).Elem(), reflect.ValueOf(&d).Elem())
	if e.err != nil {
		clear(e.memo)
		return nil, e.err
	}
	e.buf = append(e.buf, '\n')
	e.out = append(e.out, e.buf[e.glue:])
	return e.out, nil
}

// output finishes a memoized map whose encoding is enc, and which
// starts at start in the buffer: a spliced map's bytes are already
// there, an unchanged one's are not. Unless a memoized map encloses it,
// the map is cut out of the buffer and goes out as enc itself.
func (e *snapshotEncoder) output(start int, enc []byte) {
	if e.depth > 0 {
		if len(e.buf) == start {
			e.buf = append(e.buf, enc...)
		}
		return
	}
	e.out = append(e.out, e.buf[e.glue:start], enc)
	e.buf, e.glue = e.buf[:start], start
}

// plan returns t's JSON fields, computing them on first use.
func (e *snapshotEncoder) plan(t reflect.Type) []snapshotField {
	if f, ok := e.fields[t]; ok {
		return f
	}
	if e.fields == nil {
		e.fields = make(map[reflect.Type][]snapshotField)
	}
	f := appendFields(nil, t, nil)
	e.fields[t] = f
	return f
}

// appendFields lists t's JSON fields in declaration order, inlining an
// untagged embedded struct as encoding/json does. The snapshot structs
// use bare names: a tag option (omitempty, string) is not modelled and
// panics, so it cannot silently change the bytes.
func appendFields(dst []snapshotField, t reflect.Type, index []int) []snapshotField {
	for i := range t.NumField() {
		sf := t.Field(i)
		idx := append(slices.Clip(index), i)
		tag := sf.Tag.Get("json")
		if sf.Anonymous && tag == "" && sf.Type.Kind() == reflect.Struct {
			dst = appendFields(dst, sf.Type, idx)
			continue
		}
		if !sf.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if opts != "" {
			panic(fmt.Sprintf("analysis: snapshot field %s.%s: tag options are not supported", t.Name(), sf.Name))
		}
		if name == "" {
			name = sf.Name
		}
		marshal := false
		for _, m := range []reflect.Type{reflect.TypeFor[json.Marshaler](), reflect.TypeFor[encoding.TextMarshaler]()} {
			marshal = marshal || sf.Type.Implements(m) || reflect.PointerTo(sf.Type).Implements(m)
		}
		dst = append(dst, snapshotField{
			index:   idx,
			name:    append(appendJSONString(nil, name), ':'),
			marshal: marshal,
		})
	}
	return dst
}

// appendStruct encodes v, a struct, given d, the same struct in the
// delta.
func (e *snapshotEncoder) appendStruct(v, d reflect.Value) {
	e.buf = append(e.buf, '{')
	for i, f := range e.plan(v.Type()) {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, f.name...)
		fv := v.FieldByIndex(f.index)
		if f.marshal {
			e.marshal(fv)
			continue
		}
		e.appendValue(fv, d.FieldByIndex(f.index))
	}
	e.buf = append(e.buf, '}')
}

// appendValue encodes a value whose type does not encode itself, given
// d, the same value in the delta.
func (e *snapshotEncoder) appendValue(v, d reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.buf = strconv.AppendUint(e.buf, v.Uint(), 10)
	case reflect.String:
		e.buf = appendJSONString(e.buf, v.String())
	case reflect.Struct:
		e.appendStruct(v, d)
	case reflect.Map:
		if !e.appendMap(v.Interface(), d.Interface()) {
			e.marshal(v)
		}
	default:
		e.marshal(v)
	}
}

// marshal is the fallback for a shape without a typed path.
func (e *snapshotEncoder) marshal(v reflect.Value) {
	b, err := json.Marshal(v.Interface())
	if err != nil && e.err == nil {
		e.err = err
	}
	e.buf = append(e.buf, b...)
}

// appendMap encodes the map shapes the accumulator uses, given d, the
// same map in the delta (of the same type), and reports whether m was
// one of them.
func (e *snapshotEncoder) appendMap(m, d any) bool {
	switch m := m.(type) {
	case map[string]bool:
		spliceMap(e, m, d.(map[string]bool), stringKeys[string](), boolValue)
	case map[string]siteSet:
		spliceMap(e, m, d.(map[string]siteSet), stringKeys[string](), setValue)
	case map[dataset.Phase]map[string]siteSet:
		spliceMap(e, m, d.(map[dataset.Phase]map[string]siteSet), stringKeys[dataset.Phase](), setsValue)
	case map[string]int:
		spliceMap(e, m, d.(map[string]int), stringKeys[string](), intValue)
	case stats.Counter:
		spliceMap(e, m, d.(stats.Counter), stringKeys[string](), intValue)
	case map[dataset.CallType]int:
		spliceMap(e, m, d.(map[dataset.CallType]int), stringKeys[dataset.CallType](), intValue)
	case map[dataset.Phase]map[dataset.CallType]int:
		spliceMap(e, m, d.(map[dataset.Phase]map[dataset.CallType]int), stringKeys[dataset.Phase](), countsValue)
	case map[string]map[dataset.CallType]int:
		spliceMap(e, m, d.(map[string]map[dataset.CallType]int), stringKeys[string](), countsValue)
	case map[int]rankCount:
		spliceMap(e, m, d.(map[int]rankCount), intKeys(), structValues[rankCount]())
	case map[int]epochCount:
		spliceMap(e, m, d.(map[int]epochCount), intKeys(), structValues[epochCount]())
	default:
		return false
	}
	return true
}

// The value encoders: each encodes a map value given its counterpart in
// the delta.

func boolValue(e *snapshotEncoder, v, _ bool) { e.buf = strconv.AppendBool(e.buf, v) }

func intValue(e *snapshotEncoder, v, _ int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func setValue(e *snapshotEncoder, v, d siteSet) {
	spliceMap(e, v, d, stringKeys[string](), boolValue)
}

func setsValue(e *snapshotEncoder, v, d map[string]siteSet) {
	spliceMap(e, v, d, stringKeys[string](), setValue)
}

func countsValue(e *snapshotEncoder, v, d map[dataset.CallType]int) {
	spliceMap(e, v, d, stringKeys[dataset.CallType](), intValue)
}

// structValues returns a value encoder for a map's struct values. It
// walks them through two addressable copies, allocated once per map
// rather than once per value.
func structValues[V any]() func(*snapshotEncoder, V, V) {
	pv, pd := new(V), new(V)
	rv, rd := reflect.ValueOf(pv).Elem(), reflect.ValueOf(pd).Elem()
	return func(e *snapshotEncoder, v, d V) {
		*pv, *pd = v, d
		e.appendStruct(rv, rd)
	}
}

// spliceMap encodes m given d, the same map in the delta (nil: nothing
// was folded into m since the previous encode). Each value is encoded by
// val with its counterpart in d. A map of at least memoMinLen keys is
// spliced from its memo; a smaller one is encoded in full.
func spliceMap[K comparable, V any](e *snapshotEncoder, m, d map[K]V, kc keyCodec[K], val func(*snapshotEncoder, V, V)) {
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	if len(m) < memoMinLen {
		appendSmallMap(e, m, d, kc, val)
		return
	}
	spliceMemo(e, memoOf(e, m), m, d, kc, val)
}

// appendSmallMap encodes a map too small to memoize in full.
func appendSmallMap[K comparable, V any](e *snapshotEncoder, m, d map[K]V, kc keyCodec[K], val func(*snapshotEncoder, V, V)) {
	var small [memoMinLen]K
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys, kc.compare)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = kc.appendKey(e.buf, k)
		e.buf = append(e.buf, ':')
		val(e, m[k], d[k])
	}
	e.buf = append(e.buf, '}')
}

// spliceMemo encodes m from its memo mm and the delta d, and updates
// the memo to the new encoding.
func spliceMemo[K comparable, V any](e *snapshotEncoder, mm *mapMemo[K], m, d map[K]V, kc keyCodec[K], val func(*snapshotEncoder, V, V)) {
	old, off := mm.keys, mm.off
	src, fresh := d, len(old) == 0
	if fresh {
		// Nothing memoized: every key is new.
		src = m
		mm.added = slices.Grow(mm.added[:0], len(m))
		mm.spans = slices.Grow(mm.spans[:0], len(m))
	}
	touched, added := mm.touched[:0], mm.added[:0]
	for k := range src {
		if i, ok := slices.BinarySearchFunc(old, k, kc.compare); ok {
			touched = append(touched, i)
		} else {
			added = append(added, k)
		}
	}
	mm.touched, mm.added = touched, added
	if len(touched) == 0 && len(added) == 0 {
		e.output(len(e.buf), mm.enc)
		return
	}
	slices.Sort(touched)
	sortKeys(added, kc.compare)

	// Walk the old keys in order, emitting each new key at its insertion
	// point, re-encoding each touched one, and copying the runs between.
	// Each stretch of output is noted as a span.
	start := len(e.buf)
	spans := mm.spans[:0]
	e.buf = append(e.buf, '{')
	next := func(sp span) {
		if len(e.buf) > start+1 {
			e.buf = append(e.buf, ',')
		}
		sp.at = len(e.buf) - start
		spans = append(spans, sp)
	}
	entry := func(k K, sp span) {
		next(sp)
		e.buf = kc.appendKey(e.buf, k)
		e.buf = append(e.buf, ':')
		e.depth++
		val(e, m[k], d[k])
		e.depth--
	}
	insertAt := func(a int) int {
		if a == len(added) {
			return len(old)
		}
		i, _ := slices.BinarySearchFunc(old, added[a], kc.compare)
		return i
	}
	a, t := 0, 0
	at := insertAt(0)
	for i := 0; i < len(old) || a < len(added); {
		switch {
		case a < len(added) && at == i:
			entry(added[a], span{old: a})
			a++
			at = insertAt(a)
		case t < len(touched) && touched[t] == i:
			entry(old[i], span{old: i, n: 1})
			t++
			i++
		default:
			end := at
			if t < len(touched) {
				end = min(end, touched[t])
			}
			next(span{old: i, n: end - i})
			e.buf = append(e.buf, mm.enc[off[i]:off[end]-1]...)
			i = end
		}
	}
	e.buf = append(e.buf, '}')
	mm.enc = append(mm.enc[:0], e.buf[start:]...)
	e.output(start, mm.enc)

	// Rebuild the keys and offsets in place, back to front: a fragment
	// only ever moves towards the end. With nothing memoized, the merged
	// keys are the added ones, already in place.
	n := len(old) + len(added)
	keys := added
	if !fresh {
		keys = slices.Grow(old, n-len(old))[:n]
	}
	off = slices.Grow(off, n+1-len(off))[:n+1]
	off[n] = len(mm.enc)
	j := n
	for s := len(spans) - 1; s >= 0; s-- {
		sp := spans[s]
		if sp.n == 0 {
			j--
			keys[j], off[j] = added[sp.old], sp.at
			continue
		}
		shift := sp.at - off[sp.old]
		for x := sp.old + sp.n - 1; x >= sp.old; x-- {
			j--
			keys[j], off[j] = keys[x], off[x]+shift
		}
	}
	mm.keys, mm.off, mm.spans = keys, off, spans
	if fresh {
		mm.added, mm.spans = nil, nil // sized for every key; a delta needs far fewer
	}
}

// memoOf returns m's memo, creating an empty one on first use.
func memoOf[K comparable, V any](e *snapshotEncoder, m map[K]V) *mapMemo[K] {
	p := reflect.ValueOf(m).Pointer()
	if mm, ok := e.memo[p].(*mapMemo[K]); ok {
		return mm
	}
	if e.memo == nil {
		e.memo = make(map[uintptr]any)
	}
	mm := &mapMemo[K]{m: m}
	e.memo[p] = mm
	return mm
}

// sortKeys sorts keys as encoding/json sorts map keys.
func sortKeys[K comparable](keys []K, compare func(a, b K) int) {
	if s, ok := any(keys).([]string); ok {
		slices.Sort(s)
		return
	}
	slices.SortFunc(keys, compare)
}

// compareDecimal orders ints by their decimal strings.
func compareDecimal(a, b int) int {
	var x, y [20]byte
	return bytes.Compare(strconv.AppendInt(x[:0], int64(a), 10), strconv.AppendInt(y[:0], int64(b), 10))
}

// appendJSONString appends s quoted as encoding/json quotes strings by
// default (HTML-safe): `"` and `\` escaped, \b \f \n \r \t short, other
// control bytes and < > & as \u00XX, U+2028 and U+2029 as \u202X, and
// each byte of invalid UTF-8 as \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
