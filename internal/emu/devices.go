package emu

import "bytes"

// UART is a write-only console device; everything the guest prints lands in
// a host-side buffer.
type UART struct {
	buf bytes.Buffer
}

func (u *UART) Name() string                  { return "uart" }
func (u *UART) Contains(addr uint32) bool     { return addr >= UARTBase && addr < UARTBase+0x100 }
func (u *UART) Read(addr, size uint32) uint32 { return 0 }
func (u *UART) Write(addr, size, val uint32) {
	if addr == UARTBase {
		u.buf.WriteByte(byte(val))
	}
}
func (u *UART) Reset()         { u.buf.Reset() }
func (u *UART) String() string { return u.buf.String() }

// Bytes returns the console output so far.
func (u *UART) Bytes() []byte { return u.buf.Bytes() }

// Mailbox register offsets (from MailboxBase).
const (
	mbRegStatus = 0 // guest reads 1 when input is pending
	mbRegLen    = 4 // length of pending input
	mbRegDone   = 8 // guest writes its result code here to complete
)

// Mailbox is the host↔guest command channel the fuzzers use: the host
// deposits an input, rings the doorbell, and the guest executor signals
// completion through the done register — which also stops the machine so
// the host regains control immediately.
type Mailbox struct {
	machine  *Machine
	input    []byte
	pending  bool
	done     bool
	doneCode uint32
}

func (m *Mailbox) Name() string { return "mailbox" }
func (m *Mailbox) Contains(addr uint32) bool {
	return (addr >= MailboxBase && addr < MailboxBase+0x100) ||
		(addr >= MailboxData && addr < MailboxData+MailboxSize)
}

func (m *Mailbox) Read(addr, size uint32) uint32 {
	if addr >= MailboxData {
		off := addr - MailboxData
		var v uint32
		for i := uint32(0); i < size; i++ {
			if int(off+i) < len(m.input) {
				v |= uint32(m.input[off+i]) << (8 * i)
			}
		}
		return v
	}
	switch addr - MailboxBase {
	case mbRegStatus:
		if m.pending {
			return 1
		}
		return 0
	case mbRegLen:
		return uint32(len(m.input))
	}
	return 0
}

func (m *Mailbox) Write(addr, size, val uint32) {
	if addr-MailboxBase == mbRegDone {
		m.pending = false
		m.done = true
		m.doneCode = val
		if m.machine != nil {
			m.machine.RequestStop()
		}
	}
}

func (m *Mailbox) Reset() {
	m.input = m.input[:0] // keep the capacity: Post refills it every exec
	m.pending = false
	m.done = false
	m.doneCode = 0
}

// Post deposits an input and rings the doorbell.
func (m *Mailbox) Post(input []byte) {
	if len(input) > MailboxSize {
		input = input[:MailboxSize]
	}
	m.input = append(m.input[:0], input...)
	m.pending = true
	m.done = false
}

// Done reports whether the guest completed the pending input, and the
// guest-reported result code.
func (m *Mailbox) Done() (bool, uint32) { return m.done, m.doneCode }

// TestDev register offsets.
const (
	tdRegExit  = 0 // write: stop the machine with this exit code
	tdRegEvent = 4 // write: append a test event value
)

// TestDev lets the guest stop the machine and emit test events.
type TestDev struct {
	machine *Machine
	Events  []uint32
}

func (t *TestDev) Name() string                  { return "testdev" }
func (t *TestDev) Contains(addr uint32) bool     { return addr >= TestDevBase && addr < TestDevBase+0x100 }
func (t *TestDev) Read(addr, size uint32) uint32 { return 0 }
func (t *TestDev) Write(addr, size, val uint32) {
	switch addr - TestDevBase {
	case tdRegExit:
		t.machine.Exit(int32(val))
	case tdRegEvent:
		t.Events = append(t.Events, val)
	}
}
func (t *TestDev) Reset() { t.Events = nil }

// SanDev register offsets. Natively-sanitized guests report violations by
// writing the fields then committing; the host collects NativeReport values.
const (
	sdRegAddr   = 0
	sdRegInfo   = 4
	sdRegPC     = 8
	sdRegKind   = 12
	sdRegCommit = 16
)

// NativeReport is one violation reported by an in-guest sanitizer runtime.
type NativeReport struct {
	Addr uint32
	Info uint32 // shadow code (KASAN) or racing PC (KCSAN)
	PC   uint32
	Kind uint32 // guest-defined report kind
}

// SanDev is the report channel for natively-sanitized firmware.
type SanDev struct {
	staged  NativeReport
	Reports []NativeReport
}

func (s *SanDev) Name() string                  { return "sandev" }
func (s *SanDev) Contains(addr uint32) bool     { return addr >= SanDevBase && addr < SanDevBase+0x100 }
func (s *SanDev) Read(addr, size uint32) uint32 { return 0 }
func (s *SanDev) Write(addr, size, val uint32) {
	switch addr - SanDevBase {
	case sdRegAddr:
		s.staged.Addr = val
	case sdRegInfo:
		s.staged.Info = val
	case sdRegPC:
		s.staged.PC = val
	case sdRegKind:
		s.staged.Kind = val
	case sdRegCommit:
		s.Reports = append(s.Reports, s.staged)
		s.staged = NativeReport{}
	}
}
func (s *SanDev) Reset() {
	s.staged = NativeReport{}
	s.Reports = nil
}
