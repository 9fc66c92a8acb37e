package emu

// RAM exposes the machine's guest RAM to the external tests.
func (m *Machine) RAM() []byte { return m.bus.ram.bytes }
