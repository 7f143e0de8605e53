// Package wire is incgraphd's line protocol: every reply's grammar, written
// by the daemon with the Append functions and read with the Parse
// functions, and Client, the one connection that speaks it.
//
// A client sends one request a line over TCP and gets one reply line for
// each, "ok …" or "err …"; blank lines and lines starting with "#" get
// none. Updates are staged per connection and applied atomically on commit.
// A command other than an update, query or answer takes no argument.
//
//	"+ v w [vlabel [wlabel]]"  stage an insertion, labels for new endpoints
//	"- v w"                    stage a deletion (graph.ParseUpdate reads both
//	                           lines, graph.AppendUpdate writes them)
//	                           → "ok staged N": N updates are staged
//	abort                      → "ok aborted N": the N staged updates dropped
//	commit                     validate, log and apply the staged batch
//	                           → "ok applied N gen=G kws=ΔO{+a −b ~c} …": the
//	                           generation it produced, and |ΔO| per standing
//	                           query in attach order (added, removed, updated)
//	query CLASS                → "ok CLASS SIZE gen=G", the view's generation
//	answer CLASS               the same line, the answer's rows as the class's
//	                           WriteAnswer writes them, then a line "."
//	stat                       → "ok key=value …": counters
//	health                     → "ok role=R gen=G walseq=S disk=D …"
//	promote                    → "ok promoted term=T": a standby takes over
//	checkpoint                 → "ok checkpoint epoch=E": snapshot, fresh WAL
//	quit                       → "ok bye", and the daemon hangs up
//
// A read is never older than a commit whose ack anyone has read, and on one
// connection generations never go back.
//
// An error reply is "err CATEGORY: detail". The detail is for people and
// may change; the category is a closed set, and each implies one recovery:
//
//	overloaded  admission control shed the request (a full queue, or the
//	            connection limit at accept): nothing changed, a staged
//	            batch is kept; retry after the hinted delay
//	disk        durability degraded (read-only mode, a failed checkpoint):
//	            nothing changed, a staged batch is kept; retry after the
//	            hinted delay
//	fenced      this node's role cannot serve it (a commit on a standby, a
//	            read on a stale replica, promote on a primary): go to the
//	            primary or promote; retrying here is useless
//	staged      the staging area refused the update (its limit), nothing
//	            was staged, or the batch was rejected at commit and
//	            dropped: fix the batch and stage it again
//	idle        no whole line came within the per-line deadline; the daemon
//	            hangs up
//	proto       the request cannot be served as sent: malformed, unknown,
//	            the wrong number of fields, a class with no standing query,
//	            or a line too long (then the daemon hangs up: the stream
//	            cannot be resynchronized mid-line)
//
// Retryable reports the first two.
package wire
