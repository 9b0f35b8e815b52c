package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/value"
)

// imageSchema has a column of every kind, NULL included, and nine of them,
// so the NULL bitmap's second byte has seven bits past the width.
func imageSchema() *value.Schema {
	return value.NewSchema(
		value.Column{Name: "i", Kind: value.KindInt}, value.Column{Name: "f", Kind: value.KindFloat},
		value.Column{Name: "s", Kind: value.KindString}, value.Column{Name: "b", Kind: value.KindBool},
		value.Column{Name: "n", Kind: value.KindNull}, value.Column{Name: "j", Kind: value.KindInt},
		value.Column{Name: "t", Kind: value.KindString}, value.Column{Name: "c", Kind: value.KindBool},
		value.Column{Name: "g", Kind: value.KindFloat},
	)
}

func imageRow(i int64, s string, b bool) value.Tuple {
	return value.NewTuple(value.NewInt(i), value.NewFloat(float64(i)/3), value.NewString(s), value.NewBool(b), value.Null,
		value.NewInt(-i<<20), value.Null, value.NewBool(!b), value.NewFloat(math.Copysign(0, -1)))
}

// imageStore returns a store of imageSchema holding current and dead
// versions under two hash indexes.
func imageStore(t testing.TB) *Store {
	s := NewStore(imageSchema())
	for _, cols := range [][]int{{0}, {2, 3}} {
		if _, err := s.CreateHashIndex(fmt.Sprint(cols), cols); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.InsertBatch([]value.Tuple{imageRow(1, "a", true), imageRow(2, "", false), imageRow(1, "a", true)}); err != nil {
		t.Fatal(err)
	}
	id, err := s.InsertVersion(imageRow(300, "long enough", false), 5)
	if err != nil {
		t.Fatal(err)
	}
	s.DeleteVersion(id, 9)
	return s
}

// storeState is everything a read of s can tell.
func storeState(s *Store) []any {
	ts, begin, end, version := s.SnapshotVersions()
	var keys []value.Value
	for _, t := range ts {
		keys = append(keys, t[0])
	}
	var hits [][]RowID
	ix, _ := s.HashIndexOn([]int{0})
	for _, k := range keys {
		hits = append(hits, ix.Lookup([]value.Value{k}))
	}
	return []any{s.Image(), ts, begin, end, version, s.Len(), s.DeadVersions(), s.MemSize(), hits}
}

// corruptImages are an image of imageStore's current rows broken one way
// each, by name.
func corruptImages(t testing.TB) map[string][]byte {
	img := imageStore(t).Image()
	set := func(at int, b byte) []byte { c := bytes.Clone(img); c[at] = b; return c }
	row := 4 // the first row: i = 1 as one varint byte, then f's 8 bytes
	count := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	return map[string][]byte{
		"last byte cut":           img[:len(img)-1],
		"BOOL byte 2":             set(row+2+1+8+2, 2), // b, past s = "a"
		"trailing byte":           append(bytes.Clone(img), 0),
		"NULL bit past the width": set(row+1, img[row+1]|0x80),
		"NULL-kind column set":    set(row, img[row]&^0x10),
		"non-canonical varint":    append(append(bytes.Clone(img[:row+2]), 0x82, 0x00), img[row+3:]...),
		"count one short":         append(count(2), img[4:]...),
		"count one over":          append(count(4), img[4:]...),
		"count cut":               img[:3],
	}
}

// TestLoadImageRefusesCorruptImages: each broken image is refused, by
// CheckImage and by LoadImage, and the store is left as it was.
func TestLoadImageRefusesCorruptImages(t *testing.T) {
	for name, img := range corruptImages(t) {
		s := imageStore(t)
		before := storeState(s)
		if err := s.CheckImage(img); err == nil {
			t.Errorf("%s: CheckImage took it", name)
		}
		if n, err := s.LoadImage(img); err == nil {
			t.Errorf("%s: LoadImage took %d rows", name, n)
		}
		if after := storeState(s); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: a refused image changed the store", name)
		}
	}
}

// FuzzLoadImage feeds a store holding versions of its own arbitrary
// images. A refused one leaves the store exactly as it was. An accepted
// one holds its count of rows, each what AppendRow writes for the tuple
// it decodes to once that has been through the tuple encoding (so every
// byte was vetted), found by the hash index, and Image gives it back byte
// for byte.
func FuzzLoadImage(f *testing.F) {
	f.Add(imageStore(f).Image())
	f.Add(NewStore(imageSchema()).Image())
	f.Add([]byte(nil))
	for _, img := range corruptImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		s := imageStore(t)
		before := storeState(s)
		n, err := s.LoadImage(img)
		if err != nil {
			if after := storeState(s); !reflect.DeepEqual(after, before) {
				t.Fatalf("refused image %x (%v) changed the store", img, err)
			}
			return
		}
		if len(img) == 0 {
			if n != 0 || s.Len() != 0 {
				t.Fatalf("the empty image loaded %d rows, Len %d", n, s.Len())
			}
			return
		}
		if want := int(binary.BigEndian.Uint32(img)); n != want || s.Len() != want {
			t.Fatalf("image of %d rows loaded %d, Len %d", want, n, s.Len())
		}
		ix, _ := s.HashIndexOn([]int{0})
		var rows []byte
		s.ScanAt(0, func(id RowID, tup value.Tuple) bool {
			canon, _, err := value.DecodeTuple(value.AppendTuple(nil, tup))
			if err != nil {
				t.Fatal(err)
			}
			rows = value.AppendRow(rows, s.Schema(), canon)
			if hits := ix.Lookup(tup[:1]); !slices.Contains(hits, id) {
				t.Fatalf("index lookup of %v gives %v, not %v", tup[0], hits, id)
			}
			return true
		})
		if !bytes.Equal(rows, img[4:]) {
			t.Fatalf("accepted image rows %x; their tuples encode to %x", img[4:], rows)
		}
		if got := s.Image(); !bytes.Equal(got, img) {
			t.Fatalf("loaded %x, Image gives %x", img, got)
		}
	})
}
