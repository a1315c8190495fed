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
	"time"

	"pjds/internal/service"
	"pjds/internal/telemetry"
)

// maxConns bounds the benchmark's connections to the service; with one
// request per connection it also bounds the requests in flight.
const maxConns = 2

// server is one in-process service instance behind a loopback HTTP
// listener, plus the client the benchmark drives it with.
type server struct {
	svc    *service.Server
	reg    *telemetry.Registry
	http   *http.Server
	done   chan struct{}
	base   string
	client *http.Client
}

// startServer starts the service API on an ephemeral loopback port,
// publishing its telemetry into a fresh registry.
func startServer(cfg service.Config) (*server, error) {
	cfg.Registry = telemetry.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  service.New(cfg),
		reg:  cfg.Registry,
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	s.http = &http.Server{Handler: s.svc.APIHandler()}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, drains the service and releases it.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.http.Shutdown(ctx) // a timeout leaves Close below to cut the connections
	_ = s.http.Close()
	<-s.done
	s.svc.Drain(time.Second)
	s.svc.Close()
	s.client.CloseIdleConnections()
}

// decodeError reports a 200 response whose body did not decode.
type decodeError struct{ err error }

func (e decodeError) Error() string { return "decoding response: " + e.err.Error() }

// post sends body to path as tenant and decodes a 200 response into
// out. Any other status is an error, as is a transport failure; a 200
// that does not decode is a decodeError.
func (s *server) post(path, tenant string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(service.HeaderTenant, tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // keep the connection reusable
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return decodeError{err}
	}
	return nil
}

// classify maps the outcome of post plus the result check to a status:
// a refusal (429, 503, 504), any other error status or a transport
// error is a failed request; a 200 whose body does not decode or fails
// check is a wrong result.
func classify(err error, check func() bool) opStatus {
	var de decodeError
	switch {
	case errors.As(err, &de):
		return opWrong
	case err != nil:
		return opFailed
	case !check():
		return opWrong
	}
	return opOK
}
