package serve

import (
	"encoding/binary"
	"strconv"

	"credist"
)

// BasePlanner exposes a snapshot's shared scanned planner to the external
// tests, which check that read-only queries leave it untouched.
func BasePlanner(sn *Snapshot) *credist.Planner { return sn.be.planner }

// MapsInPlace reports whether this host serves a mapped snapshot's shards
// in place: 64-bit little-endian hosts do. Elsewhere (386, s390x) a mapped
// open decodes the same bytes into heap shards by design, so the row
// store reads "heap" with 0 mapped bytes.
func MapsInPlace() bool {
	probe := [4]byte{1, 2, 3, 4}
	return strconv.IntSize == 64 && binary.NativeEndian.Uint32(probe[:]) == binary.LittleEndian.Uint32(probe[:])
}

// WantRowStore is the row-store label a mapped open reports on this host.
func WantRowStore() string {
	if MapsInPlace() {
		return "mmap"
	}
	return "heap"
}
