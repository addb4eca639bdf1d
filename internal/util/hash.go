package util

// FNV-64a constants (FNV-1a, 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fnv64a returns the FNV-1a 64-bit hash of data. It is bit-identical to
// hashing data through hash/fnv's New64a, but runs inline with zero heap
// allocations — the checkpoint commit path hashes every page image and the
// heap hasher object was pure garbage at that rate.
//
//aickpt:hotpath
func Fnv64a(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// Fnv64aPair returns Fnv64a(data) and Fnv64a(append([]byte{0}, data...))
// in one pass over data. FNV-1a is bound by the latency of its multiply, so
// the second, independent chain runs in the shadow of the first: the pair
// costs about one hash. The second value is the checksum of a record that
// stores data behind a 0x00 codec byte, which the commit path otherwise
// computes in a separate pass.
//
//aickpt:hotpath
func Fnv64aPair(data []byte) (plain, zeroPrefixed uint64) {
	h := uint64(fnvOffset64)
	z := h * fnvPrime64 // the 0x00 byte: offset ^ 0, then one multiply
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
		z ^= uint64(b)
		z *= fnvPrime64
	}
	return h, z
}
