package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// fleet is two federated servers listening on real loopback sockets.
type fleet struct {
	servers [2]*Server
	urls    [2]string
}

// newFleet starts two ffserve instances on 127.0.0.1, each configured with
// the other as its peer. Real listeners (not httptest) because each server
// must know its peer's URL at construction time: the listeners are opened
// first, the URLs read off them, and only then are the servers built.
func newFleet(t *testing.T, wait time.Duration) *fleet {
	t.Helper()
	var f fleet
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		f.urls[i] = "http://" + ln.Addr().String()
	}
	for i := range f.servers {
		s, err := New(Config{
			Workers:        2,
			CacheSize:      -1,
			MaxParallelism: 2,
			IslandID:       i,
			Peers:          []string{f.urls[1-i]},
			ExchangeWait:   wait,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s.Handler()}
		go func(ln net.Listener) { _ = hs.Serve(ln) }(lns[i])
		t.Cleanup(func() {
			_ = hs.Close()
			s.Close()
		})
		f.servers[i] = s
	}
	return &f
}

// federatedRequest is a deterministic two-island job: the genetic method
// exchanges every 4 steps, so a 120-step cap yields a fixed round count
// regardless of wall-clock speed.
func federatedRequest() PartitionRequest {
	return PartitionRequest{
		Graph:    twoSquares(),
		K:        2,
		Method:   "genetic",
		Seed:     7,
		Budget:   "20s",
		MaxSteps: 120,
		Federate: true,
	}
}

// postURL is post against an arbitrary base URL instead of an httptest server.
func postURL(t *testing.T, url string, body PartitionRequest) (int, partitionResponse) {
	t.Helper()
	buf := new(bytes.Buffer)
	if err := json.NewEncoder(buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/partition", "application/json", buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr partitionResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, pr
}

// TestIslandFleetLoopback fans one deterministic job out to a two-island
// loopback fleet and checks the federation contract: both islands finish,
// echo their ids and a matching exchange-round count, the client-side
// reduction picks the better island's incumbent, and the whole outcome is
// identical across repeated runs of fresh fleets.
func TestIslandFleetLoopback(t *testing.T) {
	type outcome struct {
		winnerIsland int
		winnerParts  []int32
		mcut         [2]float64
		rounds       int64
	}
	var first *outcome

	for rep := 0; rep < 3; rep++ {
		// A fresh fleet per repeat: reusing one fleet would reuse the
		// exchange key, and a round-0 deposit from the new run can pair
		// against the finished previous run on the peer (see islandHub.open).
		f := newFleet(t, 15*time.Second)

		var prs [2]partitionResponse
		done := make(chan int, 2)
		for i := 0; i < 2; i++ {
			go func(i int) {
				code, pr := postURL(t, f.urls[i], federatedRequest())
				if code != http.StatusOK {
					t.Errorf("island %d: code %d (%s)", i, code, pr.Error)
				}
				prs[i] = pr
				done <- i
			}(i)
		}
		<-done
		<-done
		if t.Failed() {
			t.FailNow()
		}

		var o outcome
		for i := 0; i < 2; i++ {
			res := prs[i].Result
			if res == nil {
				t.Fatalf("island %d: no result: %+v", i, prs[i])
			}
			if res.Island == nil || *res.Island != i {
				t.Fatalf("island %d: result reports island %v", i, res.Island)
			}
			if res.ExchangeRounds == 0 {
				t.Fatalf("island %d: no exchange rounds counted", i)
			}
			o.mcut[i] = res.Mcut
		}
		if a, b := prs[0].Result.ExchangeRounds, prs[1].Result.ExchangeRounds; a != b {
			t.Fatalf("exchange rounds diverge: island 0 ran %d, island 1 ran %d", a, b)
		}
		o.rounds = prs[0].Result.ExchangeRounds

		// Reduce exactly like the fleet does: objective first, island id as
		// the tie-break. The winner must be the better island's incumbent.
		o.winnerIsland = 0
		if o.mcut[1] < o.mcut[0] {
			o.winnerIsland = 1
		}
		o.winnerParts = prs[o.winnerIsland].Result.Parts

		if first == nil {
			first = &o
			continue
		}
		if o.winnerIsland != first.winnerIsland ||
			o.mcut != first.mcut ||
			o.rounds != first.rounds ||
			!reflect.DeepEqual(o.winnerParts, first.winnerParts) {
			t.Fatalf("repeat %d diverged from the first run:\n got %+v\nwant %+v", rep, o, *first)
		}
	}
}

// TestFederatedNonExchangingMethod: fusion-fission portfolios are
// independent restarts, so a federated fusion-fission job never calls its
// relay. Posted to one island of a live fleet, it completes at once with
// zero exchange rounds instead of waiting on a peer that never got the job.
func TestFederatedNonExchangingMethod(t *testing.T) {
	const wait = 20 * time.Second
	f := newFleet(t, wait)
	req := federatedRequest()
	req.Method = "fusion-fission"
	req.MaxSteps = 300
	req.Parallelism = 2
	start := time.Now()
	code, pr := postURL(t, f.urls[0], req)
	if code != http.StatusOK {
		t.Fatalf("code %d (%s)", code, pr.Error)
	}
	if elapsed := time.Since(start); elapsed >= wait/2 {
		t.Fatalf("job took %v: it waited on its peer", elapsed)
	}
	res := pr.Result
	if res == nil || res.Island == nil || *res.Island != 0 {
		t.Fatalf("result lost its island identity: %+v", res)
	}
	if res.ExchangeRounds != 0 {
		t.Fatalf("exchange_rounds = %d, want 0", res.ExchangeRounds)
	}
}

// TestFederateWithoutPeersRejected: a server with no fleet configuration
// must refuse "federate": true rather than silently running standalone.
func TestFederateWithoutPeersRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := federatedRequest()
	code, pr := post(t, ts, req)
	if code != http.StatusBadRequest {
		t.Fatalf("code %d (%+v), want 400", code, pr)
	}
}

// TestIslandFleetPeerDown: a fleet member whose peer is unreachable still
// completes the federated job — every exchange round degrades to the local
// candidates instead of blocking on the dead island.
func TestIslandFleetPeerDown(t *testing.T) {
	// Reserve a port and close it again: connections to it fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadPeer := "http://" + ln.Addr().String()
	ln.Close()

	_, ts := newTestServer(t, Config{
		Workers: 1, CacheSize: -1, MaxParallelism: 2,
		IslandID: 1, Peers: []string{deadPeer}, ExchangeWait: 2 * time.Second,
	})
	code, pr := post(t, ts, federatedRequest())
	if code != http.StatusOK {
		t.Fatalf("code %d (%s)", code, pr.Error)
	}
	if pr.Result == nil || pr.Result.Island == nil || *pr.Result.Island != 1 {
		t.Fatalf("degraded run lost its island identity: %+v", pr.Result)
	}
	if pr.Result.ExchangeRounds == 0 {
		t.Fatal("degraded run skipped its exchange rounds entirely")
	}
}

// TestExchangeEndpointValidation exercises POST /v1/islands/exchange
// directly: non-fleet servers 404, garbage 400, cross-graph candidates 409,
// and a poll for a round nobody deposits times out with 204.
func TestExchangeEndpointValidation(t *testing.T) {
	postRaw := func(ts string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(ts+islandExchangePath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	t.Run("not a fleet member", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		if resp := postRaw(ts.URL, sampleExchangeMessage().Encode()); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("code %d, want 404", resp.StatusCode)
		}
	})

	s, ts := newTestServer(t, Config{
		Workers: 1, IslandID: 0, Peers: []string{"http://127.0.0.1:1"},
		ExchangeWait: 200 * time.Millisecond,
	})

	t.Run("garbage body", func(t *testing.T) {
		if resp := postRaw(ts.URL, []byte("not a wire message")); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("code %d, want 400", resp.StatusCode)
		}
	})

	t.Run("cross-graph candidate refused", func(t *testing.T) {
		var localHash [wire.HashLen]byte
		localHash[0] = 0xAB
		s.hub.open(context.Background(), "job-key", localHash, 2)
		msg := sampleExchangeMessage()
		msg.Key = "job-key"
		msg.GraphHash[0] = 0xCD // different graph
		if resp := postRaw(ts.URL, msg.Encode()); resp.StatusCode != http.StatusConflict {
			t.Fatalf("code %d, want 409", resp.StatusCode)
		}
	})

	t.Run("missing deposit times out with 204", func(t *testing.T) {
		msg := sampleExchangeMessage()
		msg.Key = "nobody-home"
		if resp := postRaw(ts.URL, msg.Encode()); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("code %d, want 204", resp.StatusCode)
		}
	})
}

func sampleExchangeMessage() *wire.Message {
	return &wire.Message{
		K: 2, Island: 1, Worker: 0, Round: 0, Objective: 1.5,
		Key: "some-job", Has: true, Assign: []int32{0, 1},
	}
}
