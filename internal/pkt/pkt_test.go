package pkt

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestPacketFitsInRegisters pins Packet's shape to what Go keeps in
// registers: a struct of at most four fields and at most 32 bytes is
// passed, returned and held in registers, while a larger one is spilled
// to the stack and copied back with 16-byte block moves. At seven fields
// (40 bytes), one such reload in netem.(*Link).Send took 1.03 s of an
// 8.34-s CPU profile of the 1000-flow population run.
func TestPacketFitsInRegisters(t *testing.T) {
	typ := reflect.TypeOf(Packet{})
	if n := typ.NumField(); n > 4 {
		t.Errorf("Packet has %d fields, want at most 4", n)
	}
	if size := unsafe.Sizeof(Packet{}); size > 32 {
		t.Errorf("Packet is %d bytes, want at most 32", size)
	}
}
