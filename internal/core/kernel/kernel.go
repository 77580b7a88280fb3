// Package kernel holds the word-parallel primitives under the predictors'
// StepRun kernels and core.Bank: branch-free SWAR compare+count over
// []uint64 value runs (8-unrolled uint64 lanes, equality via the xor /
// subtract-borrow / mask-msb trick), prefix scanners for bulk fast paths,
// and the hit-bitset scatter. Every kernel has a scalar reference twin
// (the *Ref functions) that is the parity oracle for the property tests
// and the fuzzer; kernels must be bit-identical to their reference — same
// hits bytes, same counts — on every input.
//
// Kernels never read or write past len() of their arguments, so callers
// do not need tail padding; core.Bank still rounds its run buffers up to
// a multiple of 8, the SWAR block width.
package kernel

// ConstPrefixLen returns the length of the longest prefix of values
// whose elements all equal v.
func ConstPrefixLen(values []uint64, v uint64) int {
	return constPrefixLenSWAR(values, v)
}

// CompareAdjacentCount scores a last-value predictor over a run: the
// prediction for values[0] is prev, and for values[k] (k >= 1) it is
// values[k-1]. Hits are written as 0/1 bytes and the hit count is
// returned.
func CompareAdjacentCount(prev uint64, values []uint64, hits []byte) uint64 {
	return compareAdjacentCountSWAR(prev, values, hits)
}

// CompareStrideCount scores an always-update stride predictor over a
// run starting from state (last, stride): the prediction for
// values[0] is last+stride, for values[1] it is 2*values[0]-last, and
// for values[k] (k >= 2) it is 2*values[k-1]-values[k-2]. Hits are
// written as 0/1 bytes and the hit count is returned. All arithmetic
// is mod 2^64, matching the scalar predictors.
func CompareStrideCount(last, stride uint64, values []uint64, hits []byte) uint64 {
	return compareStrideCountSWAR(last, stride, values, hits)
}

// StridePrefixLen returns the length of the longest prefix of values
// that continues the arithmetic sequence prev, prev+stride,
// prev+2*stride, ... — i.e. the number of leading k with
// values[k] == values[k-1] + stride (values[-1] = prev).
func StridePrefixLen(prev, stride uint64, values []uint64) int {
	return stridePrefixLenSWAR(prev, stride, values)
}

// Scatter ORs each run-ordered hit byte into a stream-ordered bitset:
// for every k with hits[k] != 0, bit idx[k] is set in bits. idx must
// be at least len(hits) long and every index must be < 64*len(bits).
func Scatter(hits []byte, idx []int32, bits []uint64) {
	scatterSWAR(hits, idx, bits)
}

// SetOnes fills hits with 1 bytes; the bulk fast paths use it to
// record a run segment of guaranteed hits.
func SetOnes(hits []byte) {
	for i := range hits {
		hits[i] = 1
	}
}
