package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/server"
)

// serverConfig is the served configuration: the defaults, with two
// exceptions. Finished jobs leave the poll index after a millisecond: every
// client here waits synchronously and never polls, and a retained job pins
// its whole graph, so with the 15-minute default the churn workload would
// hold one 10k-vertex graph per operation. The result cache holds 64
// entries, which every window fills, so the cache's share of heap_live_mb
// does not follow the number of operations a window happens to complete;
// repeats reach back at most a few entries.
func serverConfig() server.Config {
	return server.Config{JobTTL: time.Millisecond, CacheSize: 64}
}

// session is one in-process server behind a loopback listener, the HTTP
// client that drives it, and what set-up produced: the stored base graph's
// id (churn) and the warm-up reply.
type session struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	baseID string
	warmup []byte
}

func startSession(clients int) (*session, error) {
	srv, err := server.New(serverConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &session{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener, the connections and the worker pool down and
// waits for all of them.
func (s *session) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves Serve's error to report it
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "server stopped with %v\n", err)
	}
	s.srv.Close()
}

// do sends one request whose body is the given segments and reads the
// whole reply. Non-2xx replies are errors that carry the reply.
func (s *session) do(method, path, ctype string, body ...[]byte) ([]byte, error) {
	n := 0
	for _, seg := range body {
		n += len(seg)
	}
	req, err := http.NewRequest(method, s.url+path, io.MultiReader(readers(body)...))
	if err != nil {
		return nil, err
	}
	req.ContentLength = int64(n)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		if len(data) > 200 {
			data = data[:200]
		}
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (s *session) health() (healthz, error) {
	var h healthz
	data, err := s.do(http.MethodGet, "/healthz", "")
	if err == nil {
		err = json.Unmarshal(data, &h)
	}
	return h, err
}

// setUp constructs a server, uploads the churn base graph and sends the
// warm-up request: the three steps setup_s times.
func setUp(wl workload, tr *traffic) (*session, error) {
	s, err := startSession(wl.clients)
	if err != nil {
		return nil, err
	}
	if err := s.prime(tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) prime(tr *traffic) error {
	if tr.upload == nil {
		body, err := s.do(http.MethodPost, "/v1/partition", "", tr.warmup.body...)
		s.warmup = body
		return err
	}
	data, err := s.do(http.MethodPut, "/v1/graphs", "application/octet-stream", tr.upload)
	if err != nil {
		return fmt.Errorf("uploading the base graph: %w", err)
	}
	var gr graphResponse
	if err := json.Unmarshal(data, &gr); err != nil {
		return fmt.Errorf("upload reply: %w", err)
	}
	s.baseID = gr.ID
	s.warmup, err = s.do(http.MethodPost, "/v1/partition", "", byID(nil, tr.warmup.body[0], s.baseID), warmTail(nil))
	return err
}

// sample is one operation of the timed window.
type sample struct {
	op      int           // index into the client's op sequence
	latency time.Duration // first byte sent to last byte read, whole operation
	solve   time.Duration // the partition request alone
	err     error         // transport error or non-2xx reply: a failed operation
	invalid error         // a 2xx reply the client could not use: fails the run
	body    []byte        // partition reply
	id      string        // churn: the id the mutate returned
}

// runWindow drives every client's closed loop until the deadline, looking at
// the clock only between groups of wl.group operations.
func (s *session) runWindow(wl workload, tr *traffic, deadline time.Time) [][]sample {
	out := make([][]sample, len(tr.clients))
	var wg sync.WaitGroup
	for c := range tr.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if tr.upload != nil {
				out[c] = s.churnLoop(tr.clients[c], deadline)
				return
			}
			out[c] = s.inlineLoop(tr.clients[c], wl.group, deadline)
		}(c)
	}
	wg.Wait()
	return out
}

func (s *session) inlineLoop(ops []op, group int, deadline time.Time) []sample {
	out := make([]sample, 0, len(ops))
	for i, o := range ops {
		if i%group == 0 && !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		body, err := s.do(http.MethodPost, "/v1/partition", "", o.body...)
		lat := time.Since(t0)
		out = append(out, sample{op: i, latency: lat, solve: lat, err: err, body: body})
	}
	return out
}

// churnLoop runs the mutate-then-repartition chain. A failed step ends the
// chain: every later operation depends on its graph id and parts.
func (s *session) churnLoop(ops []op, deadline time.Time) []sample {
	out := make([]sample, 0, len(ops))
	var resp partitionResponse
	if err := json.Unmarshal(s.warmup, &resp); err != nil || resp.Result == nil {
		return append(out, sample{err: fmt.Errorf("warm-up reply carries no parts")})
	}
	warm := resp.Result.Parts
	prev, older := s.baseID, ""
	var buf []byte
	for i, o := range ops {
		if !time.Now().Before(deadline) {
			break
		}
		tail := warmTail(warm) // encoded before the clock starts
		smp := sample{op: i}
		t0 := time.Now()
		var gr graphResponse
		data, err := s.do(http.MethodPost, "/v1/graphs/"+prev+"/mutate", "", o.mutateBody)
		if err == nil {
			if smp.invalid = json.Unmarshal(data, &gr); smp.invalid == nil {
				t1 := time.Now()
				buf = byID(buf, o.body[0], gr.ID)
				smp.body, err = s.do(http.MethodPost, "/v1/partition", "", buf, tail)
				smp.solve = time.Since(t1)
			}
		}
		smp.latency = time.Since(t0)
		smp.id = gr.ID
		if err == nil && smp.invalid == nil {
			resp = partitionResponse{}
			if smp.invalid = json.Unmarshal(smp.body, &resp); smp.invalid == nil && resp.Result == nil {
				smp.invalid = fmt.Errorf("reply carries no parts")
			}
		}
		if err == nil && smp.invalid == nil && older != "" {
			_, err = s.do(http.MethodDelete, "/v1/graphs/"+older, "")
		}
		smp.err = err
		out = append(out, smp)
		if err != nil || smp.invalid != nil {
			break
		}
		warm = resp.Result.Parts
		prev, older = gr.ID, prev
	}
	return out
}
