package server

import (
	"net/http"
	"strings"

	"repro/internal/graph"
)

// graphResponse describes one stored graph.
type graphResponse struct {
	// ID is the graph's content digest — the handle PartitionRequest's
	// graph.id and the mutate endpoint take.
	ID string `json:"id"`
	// Created is false when the upload deduplicated against a graph already
	// stored under the same digest.
	Created bool `json:"created,omitempty"`
	// Parent is the graph a mutation derived this one from.
	Parent string `json:"parent,omitempty"`
	N      int    `json:"n"`
	M      int    `json:"m"`
}

// mutateRequest is the body of POST /v1/graphs/{id}/mutate.
type mutateRequest struct {
	Edits []graph.EdgeEdit `json:"edits"`
}

// handleGraphs serves the collection endpoint:
//
//	PUT /v1/graphs  upload a graph; the body is either a JSON GraphSpec
//	                (inline metis text or edge list) or, with Content-Type
//	                application/octet-stream, the binary CSR encoding
//	                (graph.EncodeBinary). Replies with the content id;
//	                re-uploading an identical graph — in any encoding, any
//	                edge order — lands on the same id and stores one copy.
//	GET /v1/graphs  store occupancy statistics.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.store.Stats())
	case http.MethodPut, http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		g, err := decodeUpload(r, s.cfg.MaxBodyBytes)
		if err != nil {
			s.writeRequestError(w, err)
			return
		}
		id, created, err := s.store.Put(g)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		code := http.StatusOK
		if created {
			code = http.StatusCreated
		}
		writeJSON(w, code, graphResponse{ID: id, Created: created, N: g.NumVertices(), M: g.NumEdges()})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use PUT to upload or GET for statistics")
	}
}

// decodeUpload materializes an uploaded graph from either encoding. The
// body limit maxBody also bounds an edge list's n, as in decodeGraph.
func decodeUpload(r *http.Request, maxBody int64) (*graph.Graph, error) {
	body := readBody(r, maxBody)
	if !strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream") {
		return decodeGraphSpec(body, maxBody)
	}
	if body.err != nil {
		return nil, badRequestf("reading body: %v", body.err)
	}
	g, err := graph.DecodeBinary(body.data)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return g, nil
}

// handleGraphByID serves the per-graph endpoints:
//
//	GET    /v1/graphs/{id}         metadata (404 when unknown or evicted)
//	DELETE /v1/graphs/{id}         drop the graph from memory and disk
//	POST   /v1/graphs/{id}/mutate  apply edge edits, store the result as a
//	                               new graph and return its id — the parent
//	                               stays addressable, so a warm-started
//	                               repartition of the child can still race
//	                               cold runs of the parent.
func (s *Server) handleGraphByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	id, sub, hasSub := strings.Cut(rest, "/")
	if id == "" || (hasSub && sub != "mutate") {
		writeError(w, http.StatusNotFound, "bad graph path")
		return
	}
	if hasSub {
		s.handleGraphMutate(w, r, id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		g, ok := s.store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown graph id %q", id)
			return
		}
		writeJSON(w, http.StatusOK, graphResponse{ID: id, N: g.NumVertices(), M: g.NumEdges()})
	case http.MethodDelete:
		if !s.store.Delete(id) {
			writeError(w, http.StatusNotFound, "unknown graph id %q", id)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "deleted": true})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET, DELETE, or POST .../mutate")
	}
}

// handleGraphMutate derives a new stored graph from id by applying edge
// edits. The derived graph is content-addressed like any upload: mutating
// two stored graphs into the same content lands on the same id.
func (s *Server) handleGraphMutate(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	g, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph id %q", id)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := decodeMutate(readBody(r, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	if len(req.Edits) == 0 {
		writeError(w, http.StatusBadRequest, "mutate: no edits given")
		return
	}
	derived, err := g.WithEdits(req.Edits)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	newID, created, err := s.store.Put(derived)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, graphResponse{
		ID: newID, Created: created, Parent: id,
		N: derived.NumVertices(), M: derived.NumEdges(),
	})
}
