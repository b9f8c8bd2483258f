package server

// Exports for load_test.go, an external test package (see there).
var (
	NewTestServer = newTestServer
	WaitFor       = waitFor
)

// HoldWorker occupies one compile slot until the returned func frees it, so
// every request admitted meanwhile waits for a slot.
func (s *Server) HoldWorker() (release func()) {
	s.workers <- struct{}{}
	return func() { <-s.workers }
}
