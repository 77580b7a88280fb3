package kernel

// eq1 returns 1 when x == y and 0 otherwise, with no branches: the
// xor is zero only on equality, and for d != 0 the subtract borrows
// out of at least one set bit of d, so (d-1) &^ d has its top bit set
// only when d == 0... the other way around: for d == 0, d-1 is all
// ones and &^ 0 keeps the MSB; for d != 0, every bit set in d-1 above
// the lowest set bit of d is also set in d, so the MSB survives only
// if d's MSB is clear AND d == 0. Shifting the MSB down yields the
// 0/1 flag.
func eq1(x, y uint64) uint64 {
	d := x ^ y
	return ((d - 1) &^ d) >> 63
}

func constPrefixLenSWAR(values []uint64, v uint64) int {
	n := len(values)
	k := 0
	for ; k+8 <= n; k += 8 {
		w := values[k : k+8 : k+8]
		or := (w[0] ^ v) | (w[1] ^ v) | (w[2] ^ v) | (w[3] ^ v) |
			(w[4] ^ v) | (w[5] ^ v) | (w[6] ^ v) | (w[7] ^ v)
		if or != 0 {
			break
		}
	}
	for ; k < n; k++ {
		if values[k] != v {
			return k
		}
	}
	return n
}

func compareAdjacentCountSWAR(prev uint64, values []uint64, hits []byte) uint64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	hits = hits[:n]
	b := eq1(values[0], prev)
	hits[0] = byte(b)
	cnt := b
	k := 1
	for ; k+8 <= n; k += 8 {
		p := values[k-1 : k+7 : k+7]
		v := values[k : k+8 : k+8]
		h := hits[k : k+8 : k+8]
		b0 := eq1(v[0], p[0])
		b1 := eq1(v[1], p[1])
		b2 := eq1(v[2], p[2])
		b3 := eq1(v[3], p[3])
		b4 := eq1(v[4], p[4])
		b5 := eq1(v[5], p[5])
		b6 := eq1(v[6], p[6])
		b7 := eq1(v[7], p[7])
		h[0] = byte(b0)
		h[1] = byte(b1)
		h[2] = byte(b2)
		h[3] = byte(b3)
		h[4] = byte(b4)
		h[5] = byte(b5)
		h[6] = byte(b6)
		h[7] = byte(b7)
		cnt += b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
	}
	for ; k < n; k++ {
		b := eq1(values[k], values[k-1])
		hits[k] = byte(b)
		cnt += b
	}
	return cnt
}

func compareStrideCountSWAR(last, stride uint64, values []uint64, hits []byte) uint64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	hits = hits[:n]
	b := eq1(values[0], last+stride)
	hits[0] = byte(b)
	cnt := b
	if n == 1 {
		return cnt
	}
	b = eq1(values[1], 2*values[0]-last)
	hits[1] = byte(b)
	cnt += b
	k := 2
	for ; k+8 <= n; k += 8 {
		p2 := values[k-2 : k+6 : k+6]
		p1 := values[k-1 : k+7 : k+7]
		v := values[k : k+8 : k+8]
		h := hits[k : k+8 : k+8]
		b0 := eq1(v[0], 2*p1[0]-p2[0])
		b1 := eq1(v[1], 2*p1[1]-p2[1])
		b2 := eq1(v[2], 2*p1[2]-p2[2])
		b3 := eq1(v[3], 2*p1[3]-p2[3])
		b4 := eq1(v[4], 2*p1[4]-p2[4])
		b5 := eq1(v[5], 2*p1[5]-p2[5])
		b6 := eq1(v[6], 2*p1[6]-p2[6])
		b7 := eq1(v[7], 2*p1[7]-p2[7])
		h[0] = byte(b0)
		h[1] = byte(b1)
		h[2] = byte(b2)
		h[3] = byte(b3)
		h[4] = byte(b4)
		h[5] = byte(b5)
		h[6] = byte(b6)
		h[7] = byte(b7)
		cnt += b0 + b1 + b2 + b3 + b4 + b5 + b6 + b7
	}
	for ; k < n; k++ {
		b := eq1(values[k], 2*values[k-1]-values[k-2])
		hits[k] = byte(b)
		cnt += b
	}
	return cnt
}

func stridePrefixLenSWAR(prev, stride uint64, values []uint64) int {
	n := len(values)
	if n == 0 {
		return 0
	}
	if values[0]-prev != stride {
		return 0
	}
	k := 1
	for ; k+8 <= n; k += 8 {
		p := values[k-1 : k+7 : k+7]
		v := values[k : k+8 : k+8]
		or := ((v[0] - p[0]) ^ stride) | ((v[1] - p[1]) ^ stride) |
			((v[2] - p[2]) ^ stride) | ((v[3] - p[3]) ^ stride) |
			((v[4] - p[4]) ^ stride) | ((v[5] - p[5]) ^ stride) |
			((v[6] - p[6]) ^ stride) | ((v[7] - p[7]) ^ stride)
		if or != 0 {
			break
		}
	}
	for ; k < n; k++ {
		if values[k]-values[k-1] != stride {
			return k
		}
	}
	return n
}

func scatterSWAR(hits []byte, idx []int32, bits []uint64) {
	n := len(hits)
	if len(idx) < n {
		n = len(idx)
	}
	for k := 0; k < n; k++ {
		i := uint32(idx[k])
		bits[i>>6] |= uint64(hits[k]&1) << (i & 63)
	}
}
