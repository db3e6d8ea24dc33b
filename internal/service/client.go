package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/transport"
)

// RejectError is a server-side refusal of one request. Callers decide
// what to do from Code: busy means back off RetryAfter and resubmit,
// draining and bad-request are terminal.
type RejectError struct {
	Code       string
	RetryAfter time.Duration
	Msg        string
}

func (e *RejectError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("service: request rejected (%s, retry after %s): %s", e.Code, e.RetryAfter, e.Msg)
	}
	return fmt.Sprintf("service: request rejected (%s): %s", e.Code, e.Msg)
}

// Client speaks the fdserve wire protocol on one connection. It is safe
// for concurrent use: many goroutines may Do requests at once, and the
// single reader goroutine routes each response to its caller by request
// ID, so one slow instance never blocks replies for the others.
type Client struct {
	conn   transport.Conn
	tenant string
	shards int

	mu      sync.Mutex
	nextID  int
	pending map[int]chan response
	stats   []chan response
	readErr error

	done chan struct{}
}

// response is what the reader hands a waiting caller.
type response struct {
	payload []byte
	rej     *RejectError
	err     error
}

// NewClient performs the hello handshake on conn and starts the reader.
// The client owns the connection from here; Close releases it.
func NewClient(conn transport.Conn, tenant string) (*Client, error) {
	if err := conn.Send(transport.EncodeHello(KindHello, wireTag, tenant)); err != nil {
		return nil, fmt.Errorf("service: hello: %w", err)
	}
	frame, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("service: hello ack: %w", err)
	}
	shards, err := decodeHelloAck(frame)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:    conn,
		tenant:  tenant,
		shards:  shards,
		pending: make(map[int]chan response),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Dial connects to an fdserve address and performs the handshake.
func Dial(addr, tenant string, opts ...transport.ConnOption) (*Client, error) {
	conn, err := transport.DialConn(addr, opts...)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn, tenant)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Tenant returns the tenant name this connection authenticated as.
func (c *Client) Tenant() string { return c.tenant }

// Shards returns the server's executor shard count from the handshake.
func (c *Client) Shards() int { return c.shards }

// Close tears the connection down; in-flight Do and Stats calls fail.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done
	return err
}

// readLoop routes incoming frames to their waiting callers until the
// connection dies, then fails everything still pending.
func (c *Client) readLoop() {
	defer close(c.done)
	for {
		frame, err := c.conn.Recv()
		if err != nil {
			c.fail(fmt.Errorf("service: connection lost: %w", err))
			return
		}
		switch transport.FrameKind(frame) {
		case KindResult:
			id, payload, err := transport.DecodePayload(frame, KindResult, "service result")
			if err != nil {
				c.fail(err)
				return
			}
			c.deliver(id, response{payload: payload})
		case KindReject:
			id, code, retryMS, msg, err := decodeReject(frame)
			if err != nil {
				c.fail(err)
				return
			}
			rej := &RejectError{Code: code, RetryAfter: time.Duration(retryMS) * time.Millisecond, Msg: msg}
			c.deliver(id, response{rej: rej})
		case KindStatsReply:
			_, payload, err := transport.DecodePayload(frame, KindStatsReply, "service stats reply")
			if err != nil {
				c.fail(err)
				return
			}
			c.mu.Lock()
			var ch chan response
			if len(c.stats) > 0 {
				ch = c.stats[0]
				c.stats = c.stats[1:]
			}
			c.mu.Unlock()
			if ch != nil {
				ch <- response{payload: payload}
			}
		default:
			c.fail(fmt.Errorf("service: unexpected frame kind %d", transport.FrameKind(frame)))
			return
		}
	}
}

func (c *Client) deliver(id int, r response) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- r
	}
}

// fail poisons the client: every pending and future call gets err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = make(map[int]chan response)
	stats := c.stats
	c.stats = nil
	c.mu.Unlock()
	for _, ch := range pending {
		ch <- response{err: err}
	}
	for _, ch := range stats {
		ch <- response{err: err}
	}
}

// Do submits one request and blocks for its reply. A server refusal
// comes back as a *RejectError (match with errors.As); transport or
// decode failures as ordinary errors.
func (c *Client) Do(req Request) (*Reply, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.conn.Send(transport.EncodePayload(KindSubmit, id, payload)); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	r := <-ch
	if r.err != nil {
		return nil, r.err
	}
	if r.rej != nil {
		return nil, r.rej
	}
	var reply Reply
	if err := json.Unmarshal(r.payload, &reply); err != nil {
		return nil, fmt.Errorf("service: bad result payload: %w", err)
	}
	return &reply, nil
}

// Stats fetches the server's live snapshot.
func (c *Client) Stats() (Snapshot, error) {
	ch := make(chan response, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return Snapshot{}, err
	}
	c.stats = append(c.stats, ch)
	c.mu.Unlock()

	if err := c.conn.Send(encodeStats()); err != nil {
		// No reply will come for ch; queued, it would take the next one.
		c.mu.Lock()
		c.stats = slices.DeleteFunc(c.stats, func(q chan response) bool { return q == ch })
		c.mu.Unlock()
		return Snapshot{}, err
	}
	r := <-ch
	if r.err != nil {
		return Snapshot{}, r.err
	}
	var snap Snapshot
	if err := json.Unmarshal(r.payload, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("service: bad stats payload: %w", err)
	}
	return snap, nil
}
