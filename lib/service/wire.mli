(** The daemon's wire protocol: framing, request grammar, error codes.

    [weakord serve] speaks a versioned, length-prefixed line protocol
    over a Unix-domain socket.  This module is the protocol's single
    implementation — the server ({!Daemon}) and the bundled client
    ([weakord client]) share it, so the two sides cannot drift.  The
    operator-facing specification, including a worked transcript, is
    [docs/PROTOCOL.md]; on any disagreement the code here wins and the
    document has a bug.

    {1 Framing}

    Every message, in both directions, is one frame:

    {v <decimal length> SP <payload> LF v}

    where [length] is the byte length of [payload] (at most
    {!max_frame}), in at most five decimal digits with no leading
    [+]/[-].  The payload itself never contains LF.  Framing is
    symmetric: requests and responses use the same envelope.

    A framing violation (non-digit where a length should be, oversized
    frame, missing terminator) is unrecoverable for the connection:
    the decoder latches the error and the server closes the socket
    after sending a final [ERR 400].

    {1 Handshake}

    The first frame on a connection must be [HELLO weakord/1].  The
    server answers [OK weakord/1 engine=<version>] and only then
    accepts other verbs; anything else gets [ERR 401].  A client
    offering an unknown protocol version is rejected with [ERR 401]
    carrying the server's version, so old clients fail loudly and
    immediately. *)

val version : int
(** Protocol version spoken by this build (currently [1]). *)

val greeting : string
(** The version token exchanged in [HELLO]: ["weakord/1"]. *)

val max_frame : int
(** Maximum payload bytes per frame (65536).  Large enough for any
    job line or stats blob; small enough that a malicious length
    prefix cannot make the server buffer unboundedly. *)

(** {1 Encoding} *)

val frame : string -> string
(** [frame payload] is the full wire encoding
    [sprintf "%d %s\n" (length payload) payload]. *)

(** {1 Incremental decoding}

    Sockets deliver byte chunks, not frames; a {!decoder} reassembles
    them.  Feed whatever arrived, then pull complete payloads until
    {!next} reports it needs more bytes. *)

type decoder
(** Reassembly buffer for one direction of one connection. *)

val decoder : unit -> decoder
(** A fresh, empty decoder. *)

val feed : decoder -> string -> unit
(** [feed d bytes] appends received bytes.  Ignored once the decoder
    has latched a framing error. *)

val next : decoder -> (string option, string) result
(** [next d] is [Ok (Some payload)] when a complete frame is
    available, [Ok None] when more bytes are needed, and [Error msg]
    on a framing violation.  Errors latch: once violated, the decoder
    returns the same error forever and discards further input — a
    desynchronized stream cannot be trusted again. *)

(** {1 Requests} *)

(** A parsed client request.  The verb set is the protocol: job
    submission and lifecycle ([Submit], [Status], [Result], [Cancel]),
    introspection ([Stats], [Ping]), and connection/server lifecycle
    ([Hello], [Drain], [Bye]). *)
type request =
  | Hello of string  (** [HELLO <version-token>] — must be first *)
  | Submit of string
      (** [SUBMIT <job line>] — one line in the {!Job.parse_string}
          grammar ([test NAME], [file PATH], [seed N], [seeds LO..HI],
          [machine=...] and generator options); answered with a ticket *)
  | Status of int  (** [STATUS <ticket>] — queue state, non-blocking *)
  | Result of { ticket : int; wait : bool }
      (** [RESULT <ticket> [WAIT]] — the JSONL verdict record; with
          [WAIT] the response is deferred until the job completes *)
  | Cancel of int  (** [CANCEL <ticket>] — abort a queued/running job *)
  | Stats  (** [STATS] — one-line JSON server statistics *)
  | Drain  (** [DRAIN] — initiate graceful shutdown (same as SIGTERM) *)
  | Ping  (** [PING] — liveness probe, answered [OK pong] *)
  | Bye  (** [BYE] — close this connection cleanly *)

val parse_request : string -> (request, int * string) result
(** [parse_request payload] parses one frame payload.  Verbs are
    case-insensitive; arguments are not.  [Error (code, msg)] values
    are ready to send via {!err}. *)

val render_request : request -> string
(** [render_request r] is the payload that parses back to [r]; the
    client side of {!parse_request}. *)

(** {1 Responses}

    Responses are free-form single lines with a fixed first token:
    [OK ...] for success and [ERR <code> <message>] for failure.
    The stable error codes:

    - [400] — malformed request or framing violation
    - [401] — handshake required, or protocol version mismatch
    - [404] — unknown verb, or unknown ticket
    - [409] — operation invalid in the ticket's current state
    - [410] — result gone: the job was cancelled
    - [503] — server is draining; no new work accepted *)

val ok : string -> string
(** [ok payload] is ["OK " ^ payload] (or just ["OK"] when empty). *)

val err : int -> string -> string
(** [err code msg] is [sprintf "ERR %d %s" code msg]. *)

val e_bad : int
(** [400] — malformed request or framing violation. *)

val e_hello : int
(** [401] — handshake required or version mismatch. *)

val e_unknown : int
(** [404] — unknown verb, or unknown ticket. *)

val e_conflict : int
(** [409] — operation invalid in the ticket's current state. *)

val e_gone : int
(** [410] — result gone (job cancelled). *)

val e_draining : int
(** [503] — server draining, submission refused. *)

(** {1 The connection server}

    The daemon and the fleet's stats socket serve clients the same way:
    a non-blocking listening socket, and per connection a {!decoder}, a
    buffered output and the [HELLO] gate.  One {!service} call accepts,
    reads and writes whatever a [select] found ready. *)

type 'a conn = private {
  fd : Unix.file_descr;
  dec : decoder;
  out : Buffer.t;  (** framed responses awaiting a writable socket *)
  mutable hello : bool;
  mutable closing : bool;  (** flush [out], then close *)
  mutable dead : bool;
  data : 'a;  (** the server's own per-connection state *)
}

type 'a server
(** A listening socket and its live connections. *)

val listen : string -> 'a server
(** [listen path] binds a Unix-domain socket at [path].  A
    socket file nobody serves any more is replaced.
    @raise Failure when a live server already answers at [path], when
    [path] is not a socket, or when the bind fails. *)

val conns : 'a server -> 'a conn list
(** The live connections, newest first. *)

val send : 'a conn -> string -> unit
(** Frame a response payload and buffer it for the next write. *)

val fds : 'a server -> Unix.file_descr list * Unix.file_descr list
(** The descriptors to [select] on: the listening socket and every
    connection for reading; connections with output or closing for
    writing. *)

val service :
  'a server ->
  admit:(unit -> ('a, string) result) ->
  handle:('a conn -> request -> unit) ->
  Unix.file_descr list ->
  Unix.file_descr list ->
  unit
(** [service srv ~admit ~handle rs ws] serves the descriptors a
    [select] found ready.  Each new connection asks [admit]: [Error msg]
    refuses it with one [ERR 503 msg] frame.  The server answers
    [HELLO], [PING] and [BYE] itself, [ERR 401] to any other verb before
    [HELLO], and a malformed request or a framing violation (which
    closes the connection); every other request goes to [handle]. *)

val flush : 'a server -> unit
(** Try once to write every connection's buffered output. *)

val shutdown : 'a server -> unit
(** Close every connection and the listening socket, and unlink the
    socket path. *)
