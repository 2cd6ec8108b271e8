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
// uses takes a typed fast path; any other field is encoded by
// json.Marshal on its own.
//
// The output buffer and the key-sort scratch slices are reused from one
// checkpoint to the next. Each LiveIndex owns its encoder: in-process
// shards run several sinks at once.
type snapshotEncoder struct {
	buf    []byte
	err    error
	fields map[reflect.Type][]snapshotField
	keys   scratch[string]
	ints   scratch[int]
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

// scratch is a stack of reusable key slices: a nested map takes a slice
// of its own while its parent's is still in use, and gives it back when
// done.
type scratch[T any] struct{ free [][]T }

func (s *scratch[T]) take() []T {
	n := len(s.free)
	if n == 0 {
		return nil
	}
	t := s.free[n-1]
	s.free = s.free[:n-1]
	return t[:0]
}

func (s *scratch[T]) put(t []T) { s.free = append(s.free, t) }

// encode returns snap's encoding followed by the newline json.Encoder
// ends with. The bytes live in the encoder's buffer and are valid until
// the next encode.
func (e *snapshotEncoder) encode(snap *liveSnapshot) ([]byte, error) {
	e.buf, e.err = e.buf[:0], nil
	e.appendStruct(reflect.ValueOf(snap).Elem())
	if e.err != nil {
		return nil, e.err
	}
	e.buf = append(e.buf, '\n')
	return e.buf, nil
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

func (e *snapshotEncoder) appendStruct(v reflect.Value) {
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
		e.appendValue(fv)
	}
	e.buf = append(e.buf, '}')
}

// appendValue encodes a value whose type does not encode itself.
func (e *snapshotEncoder) appendValue(v reflect.Value) {
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
		e.appendStruct(v)
	case reflect.Map:
		if !e.appendMap(v.Interface()) {
			e.marshal(v)
		}
	default:
		e.marshal(v)
	}
}

// marshal is the fallback for a shape without a fast path.
func (e *snapshotEncoder) marshal(v reflect.Value) {
	b, err := json.Marshal(v.Interface())
	if err != nil && e.err == nil {
		e.err = err
	}
	e.buf = append(e.buf, b...)
}

// appendMap encodes the map shapes the accumulator uses and reports
// whether m was one of them.
func (e *snapshotEncoder) appendMap(m any) bool {
	switch m := m.(type) {
	case map[string]bool:
		e.appendSet(m)
	case map[string]siteSet:
		appendNested(e, m, (*snapshotEncoder).appendSet)
	case map[dataset.Phase]map[string]siteSet:
		appendNested(e, m, func(e *snapshotEncoder, sets map[string]siteSet) {
			appendNested(e, sets, (*snapshotEncoder).appendSet)
		})
	case map[string]int:
		appendCounts(e, m)
	case stats.Counter:
		appendCounts(e, m)
	case map[dataset.CallType]int:
		appendCounts(e, m)
	case map[dataset.Phase]map[dataset.CallType]int:
		appendNested(e, m, appendCounts[dataset.CallType])
	case map[string]map[dataset.CallType]int:
		appendNested(e, m, appendCounts[dataset.CallType])
	case map[int]rankCount:
		appendIntKeyed(e, m)
	case map[int]epochCount:
		appendIntKeyed(e, m)
	default:
		return false
	}
	return true
}

// appendSet encodes a set. Sets are all-true in practice (the caller
// set Allowed is not), so when every value is true none is looked up.
func (e *snapshotEncoder) appendSet(m map[string]bool) {
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	keys := e.keys.take()
	allTrue := true
	for k, v := range m {
		keys = append(keys, k)
		allTrue = allTrue && v
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendJSONString(e.buf, k)
		if allTrue || m[k] {
			e.buf = append(e.buf, ":true"...)
		} else {
			e.buf = append(e.buf, ":false"...)
		}
	}
	e.buf = append(e.buf, '}')
	e.keys.put(keys)
}

// appendCounts encodes a string-keyed counter.
func appendCounts[K ~string](e *snapshotEncoder, m map[K]int) {
	appendNested(e, m, func(e *snapshotEncoder, n int) {
		e.buf = strconv.AppendInt(e.buf, int64(n), 10)
	})
}

// appendNested encodes a string-keyed map whose values val encodes.
func appendNested[K ~string, V any](e *snapshotEncoder, m map[K]V, val func(*snapshotEncoder, V)) {
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	keys := e.keys.take()
	for k := range m {
		keys = append(keys, string(k))
	}
	slices.Sort(keys)
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = appendJSONString(e.buf, k)
		e.buf = append(e.buf, ':')
		val(e, m[K(k)])
	}
	e.buf = append(e.buf, '}')
	e.keys.put(keys)
}

// appendIntKeyed encodes an int-keyed map of tagged structs. encoding/json
// quotes int keys and sorts them as decimal strings, so "10" precedes
// "9".
func appendIntKeyed[V any](e *snapshotEncoder, m map[int]V) {
	if m == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	keys := e.ints.take()
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareDecimal)
	var val V
	rv := reflect.ValueOf(&val).Elem()
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '"')
		e.buf = strconv.AppendInt(e.buf, int64(k), 10)
		e.buf = append(e.buf, '"', ':')
		val = m[k]
		e.appendValue(rv)
	}
	e.buf = append(e.buf, '}')
	e.ints.put(keys)
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
