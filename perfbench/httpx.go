package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"cbb/internal/server"
)

// loopback serves a server.Server on a loopback listener in this process.
type loopback struct {
	srv  *server.Server
	url  string
	done chan error
}

func startLoopback(srv *server.Server) (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{srv: srv, url: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { lb.done <- srv.Serve(l) }()
	return lb, nil
}

// stop drains the server, closes its engine and waits for Serve to return.
func (lb *loopback) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := lb.srv.Shutdown(ctx)
	if serr := <-lb.done; err == nil {
		err = serr
	}
	return err
}

// newClient returns a client that holds at most one connection, so each
// client is one connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// post sends body to url and decodes a 2xx JSON reply into out; a non-2xx
// reply returns its status and an error.
func post(c *http.Client, url string, body []byte, out any) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return decodeReply(resp.StatusCode, resp.Body, out)
}

// postInProcess is post through the handler directly, without a network.
func postInProcess(h http.Handler, path string, body []byte, out any) (int, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return decodeReply(rec.Code, rec.Body, out)
}

func decodeReply(status int, body io.Reader, out any) (int, error) {
	if status < 200 || status > 299 {
		msg, _ := io.ReadAll(body)
		return status, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return status, fmt.Errorf("decoding reply: %w", err)
	}
	return status, nil
}

// mustJSON encodes a request body; the request types always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
