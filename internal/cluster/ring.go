// Package cluster is evaserve's sharded multi-node execution tier. A static
// membership of nodes shares one consistent-hash ring; every execution
// context (and therefore every job against it) is owned by the node its id
// hashes to, with the next distinct nodes on the ring acting as replicas.
// Any node can act as a router: requests that belong elsewhere are
// forwarded to the owner over the ordinary evaserve HTTP API via
// eva.Client, peer health is probed in the background, and jobs whose
// owner dies are requeued onto the next replica from a durable routed-job
// record kept by the router that admitted them. /programs and /metrics are
// scatter-gathered across the membership.
//
// The paper's deployment model makes this tier natural: programs,
// parameters, keys, and ciphertexts are all serialized artifacts, so
// nothing about an EVA workload pins it to one process — a context's key
// bundle installs anywhere its program compiles (compilation is
// deterministic), which is exactly what replication and failover exploit.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over the static membership. Each member
// projects vnodes points onto the 64-bit circle; a key is owned by the
// member of the first point clockwise of the key's hash. Virtual nodes keep
// the shards balanced (with 64 points per member the expected imbalance is
// a few percent) and consistent hashing keeps reassignment minimal if the
// membership ever changes between deployments.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted member ids
}

type ringPoint struct {
	hash uint64
	node string
}

func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring over the member ids with vnodes points per member.
func newRing(nodes []string, vnodes int) (*ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	seen := map[string]bool{}
	r := &ring{}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// successors returns the first n distinct members clockwise of the key's
// hash, owner first. n is clamped to the membership size.
func (r *ring) successors(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return nil
	}
	h := hash64(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := map[string]bool{}
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(idx+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
