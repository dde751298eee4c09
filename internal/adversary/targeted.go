package adversary

import (
	"fmt"
	"sort"

	"github.com/secure-wsn/qcomposite/internal/wsn"
)

// CaptureTargeted evaluates a degree-targeted node-capture attack: the
// adversary observes the secure topology and captures the count
// highest-degree sensors (ties broken by sensor ID for determinism).
//
// Note a property of the q-composite scheme this attack exposes: because
// every ring holds exactly K uniform keys, high degree reflects sampling
// luck rather than key-material concentration, so the targeted attack does
// NOT eavesdrop meaningfully better than random capture (the compromised
// fraction of external links is statistically indistinguishable — verified
// in tests). Its advantage is topological: removing the highest-degree
// sensors fragments the surviving network much faster, which is why the
// paper's k-connectivity margin (surviving ANY k−1 failures, not just
// random ones) is the right design target.
//
// Degrees are ranked over the ALIVE-induced secure topology, not the full
// graph G_{n,q}: a failed sensor contributes no usable links (its edges are
// already excluded from TotalLinks), so ranking the full topology would
// spend capture budget on dead sensors — and count edges INTO dead sensors
// when ranking the live ones. Only alive sensors are capturable, mirroring
// CaptureRandom.
func CaptureTargeted(net *wsn.Network, count int) (CaptureResult, error) {
	ids, err := rankAliveByDegree(net)
	if err != nil {
		return CaptureResult{}, err
	}
	if count < 0 || count > len(ids) {
		return CaptureResult{}, fmt.Errorf("adversary: cannot capture %d of %d alive sensors", count, len(ids))
	}
	return Capture(net, append([]int32(nil), ids[:count]...))
}

// rankAliveByDegree returns the alive sensor IDs ordered by descending degree
// in the alive-induced secure topology, ties broken by ascending sensor ID
// for determinism.
func rankAliveByDegree(net *wsn.Network) ([]int32, error) {
	sub, orig, err := net.SecureTopology()
	if err != nil {
		return nil, fmt.Errorf("adversary: targeted ranking: %w", err)
	}
	deg := make(map[int32]int, len(orig))
	for i, id := range orig {
		deg[id] = sub.Degree(int32(i))
	}
	ids := append([]int32(nil), orig...)
	sort.Slice(ids, func(i, j int) bool {
		di, dj := deg[ids[i]], deg[ids[j]]
		if di != dj {
			return di > dj
		}
		return ids[i] < ids[j]
	})
	return ids, nil
}
