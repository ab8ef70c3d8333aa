package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"mdv/internal/rdf"
)

// The binary changeset encoding. A provider encodes each interest group's
// changeset once per publish; the changelog's publish record and the push
// frame carry the same bytes, and a subscriber decodes them in one pass.
// Query and browse answers carry a bare resources list in the same
// encoding (AppendResources, DecodeResources).
//
//	changeset   = uvarint(len(body)) body
//	body        = credits upserts removals closures forced
//	credits     = uvarint(0)                         nil MemberCredits
//	            | uvarint(n+1) n*(string ids)        members in ascending order
//	ids         = uvarint(n) n*varint
//	upserts     = uvarint(n) n*(resource ids resources)
//	removals    = uvarint(n) n*(string varint)
//	closures    = resources                          ClosureUpserts
//	forced      = uvarint(n) n*string                ForcedDeletes
//	resources   = uvarint(n) n*resource
//	resource    = string(URIRef) string(Class) uvarint(n) n*(string(Name) kind string(value))
//	kind        = 0x00 literal | 0x01 resource reference
//	string      = uvarint(len) bytes
//
// The encoding is canonical: every changeset has exactly one encoding, and
// DecodeChangeset accepts nothing else (no non-minimal varints, members in
// strictly ascending order, kind bytes 0 or 1), so a decoded changeset
// re-encodes to the bytes it came from; the same holds for a resources
// list and DecodeResources. Strings are raw bytes; invalid UTF-8
// survives unchanged. An empty list decodes as nil, except MemberCredits,
// whose nil ("one receiver, apply everything") and empty forms differ.

// errCodec is wrapped by every decoding error.
var errCodec = errors.New("core: malformed binary encoding")

// AppendChangeset appends the binary encoding of cs to dst and returns the
// extended slice.
func AppendChangeset(dst []byte, cs *Changeset) []byte {
	start := len(dst)
	dst = appendCredits(dst, cs.MemberCredits)
	dst = binary.AppendUvarint(dst, uint64(len(cs.Upserts)))
	for i := range cs.Upserts {
		u := &cs.Upserts[i]
		dst = appendResource(dst, u.Resource)
		dst = appendIDs(dst, u.SubIDs)
		dst = AppendResources(dst, u.Closure)
	}
	dst = binary.AppendUvarint(dst, uint64(len(cs.Removals)))
	for _, r := range cs.Removals {
		dst = appendString(dst, r.URIRef)
		dst = binary.AppendVarint(dst, r.SubID)
	}
	dst = AppendResources(dst, cs.ClosureUpserts)
	dst = binary.AppendUvarint(dst, uint64(len(cs.ForcedDeletes)))
	for _, uri := range cs.ForcedDeletes {
		dst = appendString(dst, uri)
	}
	// Prefix the body with its length: shift it right by the prefix's size
	// (one memmove) rather than walking the changeset twice to size it.
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(len(dst)-start))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:len(dst)-h])
	copy(dst[start:], hdr[:h])
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendIDs(dst []byte, ids []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendVarint(dst, id)
	}
	return dst
}

func appendCredits(dst []byte, credits map[string][]int64) []byte {
	if credits == nil {
		return binary.AppendUvarint(dst, 0)
	}
	members := make([]string, 0, len(credits))
	for m := range credits {
		members = append(members, m)
	}
	sort.Strings(members)
	dst = binary.AppendUvarint(dst, uint64(len(members))+1)
	for _, m := range members {
		dst = appendString(dst, m)
		dst = appendIDs(dst, credits[m])
	}
	return dst
}

// appendResource encodes r; a nil resource encodes as an empty one (the
// engine never publishes nil resources).
func appendResource(dst []byte, r *rdf.Resource) []byte {
	if r == nil {
		r = &rdf.Resource{}
	}
	dst = appendString(dst, r.URIRef)
	dst = appendString(dst, r.Class)
	dst = binary.AppendUvarint(dst, uint64(len(r.Props)))
	for _, p := range r.Props {
		dst = appendString(dst, p.Name)
		dst = append(dst, byte(p.Value.Kind))
		dst = appendString(dst, p.Value.String())
	}
	return dst
}

// AppendResources appends the encoding of a resources list (the
// `resources` production) to dst and returns the extended slice.
func AppendResources(dst []byte, rs []*rdf.Resource) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rs)))
	for _, r := range rs {
		dst = appendResource(dst, r)
	}
	return dst
}

// Minimum encoded sizes, in bytes, of the repeated elements. A count is
// checked against the remaining input divided by its element's minimum
// before anything is allocated for it, so a short input cannot make the
// decoder allocate for elements it does not contain.
const (
	minID       = 1
	minString   = 1
	minMember   = minString + 1             // name, id count
	minRemoval  = minString + minID         // uri, sub id
	minProperty = minString + 1 + minString // name, kind, value
	minResource = 2*minString + 1           // uri, class, property count
	minUpsert   = minResource + 1 + 1       // resource, id count, closure count
)

// DecodeChangeset decodes the changeset encoded at the front of b. It
// returns the changeset and the number of bytes it occupied; bytes past
// them are left to the caller. Input that is not a canonical encoding is
// rejected with an error.
func DecodeChangeset(b []byte) (*Changeset, int, error) {
	d := decoder{b: b}
	n := d.count(1)
	if d.err != nil {
		return nil, 0, d.err
	}
	end := d.off + n
	d.b = b[:end]
	cs := &Changeset{}
	cs.MemberCredits = d.credits()
	if k := d.count(minUpsert); k > 0 {
		cs.Upserts = make([]Upsert, k)
		for i := range cs.Upserts {
			u := &cs.Upserts[i]
			u.Resource = d.resource()
			u.SubIDs = d.ids()
			u.Closure = d.resources()
		}
	}
	if k := d.count(minRemoval); k > 0 {
		cs.Removals = make([]Removal, k)
		for i := range cs.Removals {
			cs.Removals[i] = Removal{URIRef: d.string(), SubID: d.varint()}
		}
	}
	cs.ClosureUpserts = d.resources()
	if k := d.count(minString); k > 0 {
		cs.ForcedDeletes = make([]string, k)
		for i := range cs.ForcedDeletes {
			cs.ForcedDeletes[i] = d.string()
		}
	}
	if d.err == nil && d.off != end {
		d.fail("%d trailing body bytes", end-d.off)
	}
	if d.err != nil {
		return nil, 0, d.err
	}
	return cs, end, nil
}

// DecodeResources decodes a resources list that fills b exactly. Input that
// is not a canonical encoding, or that has bytes past the list, is rejected
// with an error. An empty list decodes as nil.
func DecodeResources(b []byte) ([]*rdf.Resource, error) {
	d := decoder{b: b}
	rs := d.resources()
	if d.err == nil && d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return rs, nil
}

// decoder reads the encoding front to back. The first error sticks: every
// later read returns a zero value, so the decode functions need not check
// after each field.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d: %s", errCodec, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n <= 0:
		d.fail("bad varint")
		return 0
	case n > 1 && d.b[d.off+n-1] == 0:
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a length or element count and checks it against the bytes
// left, given each element's minimum encoded size.
func (d *decoder) count(minSize int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64((len(d.b)-d.off)/minSize) {
		d.fail("count %d exceeds the %d bytes left", v, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *decoder) string() string {
	n := d.count(1)
	if n == 0 {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) ids() []int64 {
	k := d.count(minID)
	if k == 0 {
		return nil
	}
	ids := make([]int64, k)
	for i := range ids {
		ids[i] = d.varint()
	}
	return ids
}

func (d *decoder) credits() map[string][]int64 {
	k := d.uvarint()
	if k == 0 || d.err != nil {
		return nil
	}
	k--
	if k > uint64((len(d.b)-d.off)/minMember) {
		d.fail("member count %d exceeds the %d bytes left", k, len(d.b)-d.off)
		return nil
	}
	credits := make(map[string][]int64, k)
	prev := ""
	for i := uint64(0); i < k && d.err == nil; i++ {
		m := d.string()
		if i > 0 && m <= prev {
			d.fail("member %q out of order", m)
		}
		prev = m
		credits[m] = d.ids()
	}
	return credits
}

func (d *decoder) resource() *rdf.Resource {
	r := &rdf.Resource{URIRef: d.string(), Class: d.string()}
	if k := d.count(minProperty); k > 0 {
		r.Props = make([]rdf.Property, k)
		for i := range r.Props {
			p := &r.Props[i]
			p.Name = d.string()
			kind := d.byte()
			switch kind {
			case byte(rdf.Literal):
				p.Value = rdf.Lit(d.string())
			case byte(rdf.ResourceRef):
				p.Value = rdf.Ref(d.string())
			default:
				d.fail("value kind %d", kind)
			}
		}
	}
	return r
}

func (d *decoder) resources() []*rdf.Resource {
	k := d.count(minResource)
	if k == 0 {
		return nil
	}
	rs := make([]*rdf.Resource, k)
	for i := range rs {
		rs[i] = d.resource()
	}
	return rs
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated")
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}
