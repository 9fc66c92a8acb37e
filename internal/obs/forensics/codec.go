package forensics

import (
	"encoding/binary"
	"fmt"

	"embsan/internal/obs"
)

// Binary forensic-record format, mirroring the EMTR trace codec: a fixed
// 12-byte header followed by variable-length little-endian records (the
// 22-byte event layout of EMTR plus the folded backtrace). The encoding is
// canonical — exactly one byte string per record list, and decoding
// rejects anything that is not such a byte string — so encode∘decode and
// decode∘encode are identities on their domains (FuzzExplainRoundTrip
// enforces this).
//
//	header:  "EMFX" | u16 version | u16 reserved=0 | u32 count
//	record:  u64 icnt | u32 pc | u32 addr | u32 arg | u8 kind | u8 hart |
//	         u16 nframes | nframes × u32 frame
const (
	fxMagic      = "EMFX"
	fxVersion    = 1
	fxHeaderSize = 12
	fxEventSize  = 22
	// fxMaxFrames bounds a record's backtrace. The emulator's shadow call
	// stack is capped far below this; the bound exists so malformed inputs
	// cannot request absurd allocations.
	fxMaxFrames = 1024
)

// EncodeRecords serialises a folded record list. Records whose stacks
// exceed fxMaxFrames frames or whose events carry EvFrame (frames are
// folded, never top-level) are rejected.
func EncodeRecords(recs []Record) ([]byte, error) {
	size := fxHeaderSize
	for i, r := range recs {
		if r.Event.Kind == obs.EvFrame {
			return nil, fmt.Errorf("forensics: record %d is a bare frame event", i)
		}
		if len(r.Stack) > fxMaxFrames {
			return nil, fmt.Errorf("forensics: record %d has %d frames (max %d)", i, len(r.Stack), fxMaxFrames)
		}
		size += fxEventSize + 2 + 4*len(r.Stack)
	}
	out := make([]byte, size)
	copy(out, fxMagic)
	binary.LittleEndian.PutUint16(out[4:], fxVersion)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(recs)))
	off := fxHeaderSize
	for _, r := range recs {
		e := r.Event
		binary.LittleEndian.PutUint64(out[off:], e.ICnt)
		binary.LittleEndian.PutUint32(out[off+8:], e.PC)
		binary.LittleEndian.PutUint32(out[off+12:], e.Addr)
		binary.LittleEndian.PutUint32(out[off+16:], e.Arg)
		out[off+20] = byte(e.Kind)
		out[off+21] = e.Hart
		binary.LittleEndian.PutUint16(out[off+22:], uint16(len(r.Stack)))
		off += fxEventSize + 2
		for _, pc := range r.Stack {
			binary.LittleEndian.PutUint32(out[off:], pc)
			off += 4
		}
	}
	return out, nil
}

// DecodeRecords parses a binary forensic record list. It never panics on
// malformed input.
func DecodeRecords(b []byte) ([]Record, error) {
	if len(b) < fxHeaderSize {
		return nil, fmt.Errorf("forensics: record stream too short (%d bytes)", len(b))
	}
	if string(b[:4]) != fxMagic {
		return nil, fmt.Errorf("forensics: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != fxVersion {
		return nil, fmt.Errorf("forensics: unsupported version %d", v)
	}
	if r := binary.LittleEndian.Uint16(b[6:]); r != 0 {
		return nil, fmt.Errorf("forensics: reserved header bytes set (%#x)", r)
	}
	count := int(binary.LittleEndian.Uint32(b[8:]))
	// Every record takes at least fxEventSize+2 bytes: bound the header's
	// count by the stream length before sizing anything from it.
	if most := (len(b) - fxHeaderSize) / (fxEventSize + 2); count > most {
		return nil, fmt.Errorf("forensics: header claims %d records, %d bytes hold at most %d", count, len(b), most)
	}
	recs := make([]Record, 0, count)
	off := fxHeaderSize
	for i := 0; i < count; i++ {
		if len(b)-off < fxEventSize+2 {
			return nil, fmt.Errorf("forensics: record %d truncated", i)
		}
		e := obs.Event{
			ICnt: binary.LittleEndian.Uint64(b[off:]),
			PC:   binary.LittleEndian.Uint32(b[off+8:]),
			Addr: binary.LittleEndian.Uint32(b[off+12:]),
			Arg:  binary.LittleEndian.Uint32(b[off+16:]),
			Kind: obs.Kind(b[off+20]),
			Hart: b[off+21],
		}
		if !e.Kind.Valid() {
			return nil, fmt.Errorf("forensics: record %d has unknown kind %d", i, e.Kind)
		}
		if e.Kind == obs.EvFrame {
			return nil, fmt.Errorf("forensics: record %d is a bare frame event", i)
		}
		n := int(binary.LittleEndian.Uint16(b[off+22:]))
		if n > fxMaxFrames {
			return nil, fmt.Errorf("forensics: record %d has %d frames (max %d)", i, n, fxMaxFrames)
		}
		off += fxEventSize + 2
		if len(b)-off < 4*n {
			return nil, fmt.Errorf("forensics: record %d frame list truncated", i)
		}
		var stack []uint32
		for f := 0; f < n; f++ {
			stack = append(stack, binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
		recs = append(recs, Record{Event: e, Stack: stack})
	}
	if off != len(b) {
		return nil, fmt.Errorf("forensics: %d trailing bytes after %d records", len(b)-off, count)
	}
	return recs, nil
}
