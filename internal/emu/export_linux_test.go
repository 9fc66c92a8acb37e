package emu

// MappedBytes reports the Memory bytes held in live mappings.
func MappedBytes() int64 { return mappedBytes.Load() }
