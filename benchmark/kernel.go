package main

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The reference kernel and calibrated time.
//
// The boxes this benchmark runs on are small shared VMs whose speed
// moves by a fifth and more over minutes (a neighbour on the sibling
// hyperthread, stolen time): two sets of ten runs of one commit, twenty
// minutes apart, read 18% apart in throughput and 38% apart in p99, far
// beyond any bound worth having. So every timing is taken together with
// the rate of a fixed kernel — standard-library code only, nothing of
// the repository's, so no change to the system can move it — run on
// every core in short bursts around each part of the window, and is
// reported in calibrated time: the time the operation would have taken
// had the box run the kernel at nominalKernelRate. On a steady box
// calibration changes nothing; on a drifting one it takes the drift out
// of both sides of a comparison.

// nominalKernelRate is the kernel's rate, in iterations per second over
// all cores, on the box the first baseline was measured on (2 cores) when
// it was quiet. It only fixes the scale of calibrated time.
const nominalKernelRate = 15000

// calibrated converts a time read while the kernel ran at rate into the
// time it would have read at the nominal rate.
func calibrated(t, rate float64) float64 { return t * rate / nominalKernelRate }

// kernelRate runs the kernel on every core for d and returns iterations
// per second over all cores. One iteration is the mix the system itself
// is made of: an ed25519 sign and verify, a hash, a buffer allocated and
// filled, a small JSON round trip.
func kernelRate(d time.Duration) float64 {
	var total atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pub, priv, err := ed25519.GenerateKey(nil)
			if err != nil {
				return
			}
			type record struct {
				Index int    `json:"index"`
				Group string `json:"group"`
				Sum   []byte `json:"sum"`
			}
			msg := make([]byte, 64)
			n := int64(0)
			for ; time.Since(start) < d; n++ {
				sg := ed25519.Sign(priv, msg)
				if !ed25519.Verify(pub, msg, sg) {
					return
				}
				buf := make([]byte, 16<<10)
				for i := 0; i < len(buf); i += len(sg) {
					copy(buf[i:], sg)
				}
				sum := sha256.Sum256(buf)
				data, err := json.Marshal(record{Index: int(n), Group: "kernel", Sum: sum[:]})
				var back record
				if err != nil || json.Unmarshal(data, &back) != nil {
					return
				}
				copy(msg, back.Sum)
			}
			total.Add(n)
		}()
	}
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}
