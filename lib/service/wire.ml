(* The daemon's wire protocol: length-prefixed text frames carrying
   line-oriented requests and responses.  See docs/PROTOCOL.md for the
   operator-facing specification; this module is its single
   implementation, used by both the server and the bundled client. *)

let version = 1
let max_frame = 65536

let greeting = Printf.sprintf "weakord/%d" version

(* --- framing ----------------------------------------------------------------- *)

let frame payload =
  Printf.sprintf "%d %s\n" (String.length payload) payload

type decoder = { buf : Buffer.t; mutable dead : string option }

let decoder () = { buf = Buffer.create 256; dead = None }

let feed d s = if d.dead = None then Buffer.add_string d.buf s

let digits_limit = 5 (* max_frame fits in 5 decimal digits *)

let next d =
  match d.dead with
  | Some e -> Error e
  | None -> (
      let s = Buffer.contents d.buf in
      let n = String.length s in
      (* Parse "<len> " — reject garbage early so a stream desync is a
         loud protocol error, not a silent hang waiting for bytes. *)
      let rec scan_len i acc =
        if i >= n then
          if i > digits_limit then Error "frame length: too many digits"
          else Ok None (* need more bytes *)
        else
          match s.[i] with
          | '0' .. '9' when i < digits_limit ->
              scan_len (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
          | '0' .. '9' -> Error "frame length: too many digits"
          | ' ' when i > 0 -> Ok (Some (i + 1, acc))
          | c -> Error (Printf.sprintf "frame length: unexpected byte %C" c)
      in
      match scan_len 0 0 with
      | Error e ->
          d.dead <- Some e;
          Error e
      | Ok None -> Ok None
      | Ok (Some (_, len)) when len > max_frame ->
          let e =
            Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
              max_frame
          in
          d.dead <- Some e;
          Error e
      | Ok (Some (start, len)) ->
          if n < start + len + 1 then Ok None
          else if s.[start + len] <> '\n' then begin
            let e = "frame not terminated by newline" in
            d.dead <- Some e;
            Error e
          end
          else begin
            let payload = String.sub s start len in
            Buffer.clear d.buf;
            Buffer.add_substring d.buf s (start + len + 1)
              (n - start - len - 1);
            Ok (Some payload)
          end)

(* --- requests ---------------------------------------------------------------- *)

type request =
  | Hello of string
  | Submit of string
  | Status of int
  | Result of { ticket : int; wait : bool }
  | Cancel of int
  | Stats
  | Drain
  | Ping
  | Bye

let split_verb s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* Error codes are part of the protocol contract (docs/PROTOCOL.md):
   400 malformed request, 401 handshake, 404 unknown verb or ticket,
   409 invalid state for the operation, 410 result gone (cancelled),
   503 draining. *)
let e_bad = 400
let e_hello = 401
let e_unknown = 404
let e_conflict = 409
let e_gone = 410
let e_draining = 503

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (e_bad, Printf.sprintf "%s: expected a nonnegative integer, got %S" what s)

let parse_request line =
  let verb, rest = split_verb line in
  match (String.uppercase_ascii verb, rest) with
  | "HELLO", v -> Ok (Hello (String.trim v))
  | "SUBMIT", "" -> Error (e_bad, "SUBMIT needs a job line")
  | "SUBMIT", job -> Ok (Submit job)
  | "STATUS", t -> Result.map (fun t -> Status t) (parse_int "STATUS ticket" t)
  | "RESULT", t -> (
      match String.split_on_char ' ' (String.trim t) with
      | [ t ] -> Result.map (fun t -> Result { ticket = t; wait = false }) (parse_int "RESULT ticket" t)
      | [ t; w ] when String.uppercase_ascii w = "WAIT" ->
          Result.map (fun t -> Result { ticket = t; wait = true }) (parse_int "RESULT ticket" t)
      | _ -> Error (e_bad, "usage: RESULT <ticket> [WAIT]"))
  | "CANCEL", t -> Result.map (fun t -> Cancel t) (parse_int "CANCEL ticket" t)
  | "STATS", "" -> Ok Stats
  | "DRAIN", "" -> Ok Drain
  | "PING", "" -> Ok Ping
  | "BYE", "" -> Ok Bye
  | ("STATS" | "DRAIN" | "PING" | "BYE"), _ ->
      Error (e_bad, Printf.sprintf "%s takes no arguments" verb)
  | "", _ -> Error (e_bad, "empty request")
  | _ -> Error (e_unknown, Printf.sprintf "unknown verb %S" verb)

let render_request = function
  | Hello v -> "HELLO " ^ v
  | Submit j -> "SUBMIT " ^ j
  | Status t -> Printf.sprintf "STATUS %d" t
  | Result { ticket; wait } ->
      Printf.sprintf "RESULT %d%s" ticket (if wait then " WAIT" else "")
  | Cancel t -> Printf.sprintf "CANCEL %d" t
  | Stats -> "STATS"
  | Drain -> "DRAIN"
  | Ping -> "PING"
  | Bye -> "BYE"

(* --- responses --------------------------------------------------------------- *)

let ok payload = if payload = "" then "OK" else "OK " ^ payload
let err code msg = Printf.sprintf "ERR %d %s" code msg

(* --- the connection server --------------------------------------------------- *)

type 'a conn = {
  fd : Unix.file_descr;
  dec : decoder;
  out : Buffer.t;
  mutable hello : bool;
  mutable closing : bool;
  mutable dead : bool;
  data : 'a;
}

type 'a server = {
  listen : Unix.file_descr;
  path : string;
  mutable conns : 'a conn list;
}

let listen path =
  (* A leftover socket file from a crashed server must not block a
     restart, but a served one must: probe by connecting. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          Unix.close probe;
          failwith (path ^ ": a daemon is already serving this socket")
      | exception Unix.Unix_error _ ->
          Unix.close probe;
          (try Unix.unlink path with Unix.Unix_error _ -> ()))
  | _ -> failwith (path ^ " exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     failwith (Printf.sprintf "cannot bind %s: %s" path (Unix.error_message e)));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  { listen = fd; path; conns = [] }
let conns srv = List.filter (fun c -> not c.dead) srv.conns
let send c payload = Buffer.add_string c.out (frame payload)

let close c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let accept srv ~admit =
  let rec go () =
    match Unix.accept srv.listen with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        (match admit () with
        | Error msg ->
            (* Refuse politely: one frame, then close. *)
            let m = frame (err e_draining msg) in
            (try ignore (Unix.write_substring fd m 0 (String.length m))
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ())
        | Ok data ->
            Unix.set_nonblock fd;
            srv.conns <-
              {
                fd;
                dec = decoder ();
                out = Buffer.create 256;
                hello = false;
                closing = false;
                dead = false;
                data;
              }
              :: srv.conns);
        go ()
  in
  go ()

let hello c v =
  if String.equal v greeting then begin
    c.hello <- true;
    send c
      (ok (Printf.sprintf "%s engine=%s" greeting Verdict_cache.engine_version))
  end
  else
    send c
      (err e_hello
         (Printf.sprintf "unsupported version %S, this server speaks %s" v
            greeting))

let read c handle =
  let buf = Bytes.create 4096 in
  match Unix.read c.fd buf 0 4096 with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error _ -> close c
  | 0 -> close c
  | n ->
      feed c.dec (Bytes.sub_string buf 0 n);
      let rec pump () =
        match next c.dec with
        | Ok None -> ()
        | Ok (Some payload) ->
            (match parse_request payload with
            | Ok (Hello v) -> hello c v
            | Ok _ when not c.hello -> send c (err e_hello "say HELLO first")
            | Ok Ping -> send c (ok "pong")
            | Ok Bye ->
                send c (ok "bye");
                c.closing <- true
            | Ok req -> handle c req
            | Error (code, msg) -> send c (err code msg));
            if not c.closing then pump ()
        | Error e ->
            (* Framing violations latch: answer once, then hang up. *)
            send c (err e_bad ("framing: " ^ e));
            c.closing <- true
      in
      pump ()

let write c =
  let s = Buffer.contents c.out in
  let len = String.length s in
  if len > 0 then (
    match Unix.write_substring c.fd s 0 len with
    | n ->
        Buffer.clear c.out;
        if n < len then Buffer.add_substring c.out s n (len - n)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close c);
  if c.closing && Buffer.length c.out = 0 then close c

let fds srv =
  ( srv.listen :: List.map (fun c -> c.fd) srv.conns,
    List.filter_map
      (fun c -> if Buffer.length c.out > 0 || c.closing then Some c.fd else None)
      srv.conns )

let service srv ~admit ~handle rs ws =
  if List.mem srv.listen rs then accept srv ~admit;
  List.iter (fun c -> if (not c.dead) && List.mem c.fd rs then read c handle) srv.conns;
  List.iter (fun c -> if (not c.dead) && List.mem c.fd ws then write c) srv.conns;
  srv.conns <- List.filter (fun c -> not c.dead) srv.conns

let flush srv = List.iter write srv.conns

let shutdown srv =
  List.iter close srv.conns;
  srv.conns <- [];
  (try Unix.close srv.listen with Unix.Unix_error _ -> ());
  try Unix.unlink srv.path with Unix.Unix_error _ -> ()
