package daemon

import (
	"encoding/json"
	"math"
	"net"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"cqjoin"
	"cqjoin/internal/lockdep"
)

const (
	// maxListenerBacklog bounds the bytes queued for one listening
	// connection; a client that falls further behind is disconnected
	// (DESIGN.md §10.6). The deepest queue of a tcp-hot run is 26 kB; 16 MiB
	// is a client about three seconds of that workload's events behind.
	maxListenerBacklog = 16 << 20
	// listenerKeepCap is the largest flushed buffer a writer keeps for reuse.
	listenerKeepCap = 64 << 10
	// closeFlushGrace is how long a closing connection may take to accept
	// what is still queued for it.
	closeFlushGrace = time.Second
)

// listener is the outbound side of one client connection. Until it issues
// "listen" its handler is its only writer and replies go straight to the
// socket. From then on events and replies alike are appended to queue and
// written by writeLoop in that order: an event queued before a reply
// reaches the client before it.
type listener struct {
	conn   net.Conn
	out    replyBuf      // the reply being built; handler goroutine only
	enc    *json.Encoder // appends to out
	queued bool          // "listen" was issued; handler goroutine only
	done   chan struct{} // closed when writeLoop returns

	mu     lockdep.Mutex[listenerMu]
	wake   sync.Cond // queue became non-empty, or closed was set
	queue  []byte
	closed bool // nothing more is queued; writeLoop flushes and returns
}

type listenerMu struct{} // listener.mu's lock class

// replyBuf is a reply line being built: appended to by hand, or written by
// a json.Encoder.
type replyBuf []byte

func (b *replyBuf) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// encode returns the reply line json.Encoder writes for v, in l's reply
// buffer, or nil when v has no JSON form.
func (l *listener) encode(v interface{}) []byte {
	l.out = l.out[:0]
	if err := l.enc.Encode(v); err != nil {
		return nil
	}
	return l.out
}

// send writes or queues one reply line, appended to l.out[:0] (so l keeps
// the buffer however far it grew). An empty line sends nothing.
func (s *Server) send(l *listener, line []byte) {
	l.out = line[:0]
	switch {
	case len(line) == 0:
	case l.queued:
		s.enqueue(l, line)
	default:
		_, _ = l.conn.Write(line) // a dead connection is reaped by its reader
	}
}

// enqueue appends p to l's queue and wakes its writer. It never waits for
// the client: a backlog that would pass maxListenerBacklog closes the
// connection instead, and its handler reaps it.
func (s *Server) enqueue(l *listener, p []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if len(l.queue)+len(p) > maxListenerBacklog {
		dropped := len(l.queue)
		l.queue, l.closed = nil, true
		l.mu.Unlock()
		l.wake.Signal()
		s.met.queueBytes.Add(-int64(dropped))
		s.met.dropped.Inc()
		s.noteDepth(dropped)
		s.logf("daemon: listener %s dropped: %d bytes behind", l.conn.RemoteAddr(), dropped)
		_ = l.conn.Close()
		return
	}
	l.queue = append(l.queue, p...)
	l.mu.Unlock()
	l.wake.Signal()
	s.met.queueBytes.Add(int64(len(p)))
}

// noteDepth records how deep a listener's queue was when it was flushed or
// dropped — its deepest since the flush before.
func (s *Server) noteDepth(n int) {
	s.mu.Lock()
	if int64(n) > s.met.queueHWM.Value() {
		s.met.queueHWM.Set(int64(n))
	}
	s.mu.Unlock()
}

// writeLoop is the connection's only writer once it listens: everything
// queued goes to the socket in one Write, a burst's events in one system call.
func (l *listener) writeLoop(s *Server) {
	defer s.connWG.Done()
	defer close(l.done)
	var buf []byte
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.wake.Wait()
		}
		if len(l.queue) == 0 {
			return
		}
		buf, l.queue = l.queue, buf[:0]
		l.mu.Unlock()
		s.met.queueBytes.Add(-int64(len(buf)))
		s.met.writes.Inc()
		s.noteDepth(len(buf))
		_, err := l.conn.Write(buf)
		if cap(buf) > listenerKeepCap {
			buf = nil
		}
		l.mu.Lock()
		if err != nil {
			s.met.queueBytes.Add(-int64(len(l.queue)))
			l.queue, l.closed = nil, true
			return
		}
	}
}

// finish has writeLoop flush what is queued, under a deadline, and return.
func (l *listener) finish() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	_ = l.conn.SetWriteDeadline(time.Now().Add(closeFlushGrace))
	l.wake.Signal()
	<-l.done
}

// broadcast pushes one notification to every listening connection: the
// line is encoded once, on the stack while it fits there, and enqueue copies
// it into each queue. It runs inside the chord handler that delivered the
// notification and never touches a socket.
func (s *Server) broadcast(n cqjoin.Notification) {
	s.mu.Lock()
	targets := s.listeners // replaced, never modified, by listen and disconnect
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	var buf [256]byte
	line, ok := appendEvent(buf[:0], n)
	if ok {
		for _, l := range targets {
			s.enqueue(l, line)
		}
	}
}

// appendEvent appends the line a listening connection receives for n, byte
// for byte what encoding/json produces for a map of these keys. ok is false
// for a NaN or infinite value, which has no JSON form: nothing is sent.
func appendEvent(dst []byte, n cqjoin.Notification) (_ []byte, ok bool) {
	dst = append(dst, `{"event":"notification","query":`...)
	dst = appendJSONString(dst, n.QueryKey)
	dst = append(dst, `,"subscriber":`...)
	dst = appendJSONString(dst, n.Subscriber)
	dst = append(dst, `,"values":[`...)
	for i, v := range n.Values {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v.Kind() != cqjoin.NumberKind {
			dst = appendJSONString(dst, v.Str())
			continue
		}
		f := v.Num()
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return dst, false
		}
		// encoding/json's number format: ES6's, exponents unpadded.
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if e := len(dst) - 4; format == 'e' && e >= 0 && dst[e] == 'e' && dst[e+1] == '-' && dst[e+2] == '0' {
			dst = append(dst[:e+2], dst[e+3]) // e-09 -> e-9
		}
	}
	return append(dst, "]}\n"...), true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json quotes by default:
// control characters, quotes, backslashes, <, > and & (HTML-safe), U+2028 and
// U+2029 (JSONP-safe) escaped, each invalid UTF-8 byte replaced by U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
				start = i + size
			}
			i += size
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '\\', '"':
			dst = append(dst, '\\', b)
		case '\b', '\t', '\n', '\f', '\r': // 8, 9, 10, 12, 13; \v has no short form
			dst = append(dst, '\\', "btn-fr"[b-'\b'])
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
