// Package gabi defines the host↔guest testing ABI: the syscall-record
// encoding the fuzzing executor inside every firmware consumes from the
// mailbox device. Word fields are little-endian regardless of guest
// architecture because the mailbox data window is a device, not RAM.
package gabi

import "encoding/binary"

// RecordSize is the wire size of one syscall record.
const RecordSize = 24

// MaxArgs is the number of argument slots per record.
const MaxArgs = 4

// Record is one syscall invocation.
type Record struct {
	NR    uint32
	NArgs uint32
	Args  [MaxArgs]uint32
}

// Prog is a sequence of records — the syscall-fuzzing input unit.
type Prog []Record

// Encode serialises the program for the mailbox.
func (p Prog) Encode() []byte { return p.Append(make([]byte, 0, len(p)*RecordSize)) }

// Append appends the encoding of p to out and returns the extended slice.
func (p Prog) Append(out []byte) []byte {
	var buf [RecordSize]byte
	for _, r := range p {
		binary.LittleEndian.PutUint32(buf[0:], r.NR)
		binary.LittleEndian.PutUint32(buf[4:], r.NArgs)
		for i, a := range r.Args {
			binary.LittleEndian.PutUint32(buf[8+4*i:], a)
		}
		out = append(out, buf[:]...)
	}
	return out
}

// Decode parses a mailbox buffer back into a program (whole records only).
func Decode(b []byte) Prog {
	n := len(b) / RecordSize
	p := make(Prog, 0, n)
	for i := 0; i < n; i++ {
		off := i * RecordSize
		r := Record{
			NR:    binary.LittleEndian.Uint32(b[off:]),
			NArgs: binary.LittleEndian.Uint32(b[off+4:]),
		}
		for j := 0; j < MaxArgs; j++ {
			r.Args[j] = binary.LittleEndian.Uint32(b[off+8+4*j:])
		}
		p = append(p, r)
	}
	return p
}
