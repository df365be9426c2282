(* Append-only verdict cache with per-record CRC framing.

   One record:

     WOVC 1 <crc32 hex> <key length> <payload length>\n
     <key bytes>\n
     <payload bytes>\n

   The CRC covers key ^ "\n" ^ payload.  The header is a plain text line
   (diagnosable with [head]); the payload is an opaque marshalled
   {!verdict}.  Validation order on read: magic, version, lengths (a
   declared length past EOF is a torn tail), CRC — and only then the
   unmarshal, so corrupted bytes are never decoded.  An invalid record is
   skipped and the reader resynchronizes on the next "WOVC " at a line
   start, so one bad record costs one recompute, not the whole file. *)

type verdict = {
  v_outcomes : string list;
  v_appears_sc : bool;
  v_obeys_model : bool;
  v_allows_exists : bool option;
  v_violation : bool;
  v_states : int;
  v_complete : bool;
  v_spilled_runs : int;
}

(* Bump on any change that can alter a verdict for the same program
   text: machine semantics, the SC enumeration, the generator mapping,
   or the [verdict] record shape (the payload is marshalled).
   wovc2: symmetry reduction in the engines; the degradation point and
   v_spilled_runs added to the record.  wovc3: the degradation point
   removed again (a memory budget always spills). *)
let engine_version = "wovc3"

let magic = "WOVC "

(* The canonical program text drops the name line: the same program
   reached as a file, a builtin, or a generated seed must share a slot. *)
let canonical_text prog =
  Litmus_print.to_string
    (Prog.make ~name:"p" ~init:(Prog.init prog) ?exists:(Prog.exists prog)
       (Prog.threads prog))

let key ~prog ~machine ~model =
  Printf.sprintf "%s|%s|%s|%s"
    (Digest.to_hex (Digest.string (canonical_text prog)))
    machine model engine_version

(* Secondary, coarser key: the orbit-canonical rendering quotients the
   program by processor/location/register renaming, so every member of a
   symmetry class shares this slot.  Kept distinct from [key] by the
   prefix — the plain key stays exact-text so a hit there never needed
   the renaming argument at all. *)
let sym_key ~prog ~machine ~model =
  Printf.sprintf "sym:%s|%s|%s|%s"
    (Digest.to_hex (Digest.string (Prog_canon.text prog)))
    machine model engine_version

type t = {
  table : (string, verdict) Hashtbl.t;
  chan : out_channel option;
  mutable loaded : int;
  mutable corrupt_skipped : int;
  mutable hits : int;
  mutable misses : int;
  mutable appended : int;
}

type stats = {
  entries : int;
  loaded : int;
  corrupt_skipped : int;
  hits : int;
  misses : int;
  appended : int;
}

let frame key v =
  let payload = Marshal.to_string v [] in
  let crc = Crc32.digest (key ^ "\n" ^ payload) in
  Printf.sprintf "%s1 %08x %d %d\n%s\n%s\n" magic crc (String.length key)
    (String.length payload) key payload

(* --- load -------------------------------------------------------------------- *)

let is_magic_at data pos =
  pos + String.length magic <= String.length data
  && String.equal (String.sub data pos (String.length magic)) magic

(* The next record start at a line boundary strictly after [pos]. *)
let resync data pos =
  let len = String.length data in
  let rec go i =
    if i >= len then len
    else
      match String.index_from_opt data i '\n' with
      | None -> len
      | Some nl -> if is_magic_at data (nl + 1) then nl + 1 else go (nl + 1)
  in
  go pos

let load_into (t : t) data =
  let len = String.length data in
  let pos = ref 0 in
  let bad () =
    t.corrupt_skipped <- t.corrupt_skipped + 1;
    pos := resync data !pos
  in
  while !pos < len do
    if not (is_magic_at data !pos) then bad ()
    else
      match String.index_from_opt data !pos '\n' with
      | None ->
          (* Torn header at EOF. *)
          t.corrupt_skipped <- t.corrupt_skipped + 1;
          pos := len
      | Some nl -> (
          let header =
            String.sub data
              (!pos + String.length magic)
              (nl - !pos - String.length magic)
          in
          match String.split_on_char ' ' header with
          | [ version; crc_hex; klen; plen ] -> (
              match
                ( int_of_string_opt version,
                  int_of_string_opt ("0x" ^ crc_hex),
                  int_of_string_opt klen,
                  int_of_string_opt plen )
              with
              | Some 1, Some crc, Some klen, Some plen
                when klen >= 0 && plen >= 0 ->
                  let kstart = nl + 1 in
                  let pstart = kstart + klen + 1 in
                  let rec_end = pstart + plen + 1 in
                  if
                    rec_end > len
                    || data.[kstart + klen] <> '\n'
                    || data.[pstart + plen] <> '\n'
                  then bad () (* torn tail or corrupted lengths *)
                  else
                    let key = String.sub data kstart klen in
                    let payload = String.sub data pstart plen in
                    if Crc32.digest (key ^ "\n" ^ payload) <> crc then bad ()
                    else (
                      (match
                         (Marshal.from_string payload 0 : verdict)
                       with
                      | v ->
                          if not (Hashtbl.mem t.table key) then
                            Hashtbl.add t.table key v;
                          t.loaded <- t.loaded + 1
                      | exception (Failure _ | Invalid_argument _) ->
                          t.corrupt_skipped <- t.corrupt_skipped + 1);
                      pos := rec_end)
              | _ -> bad ())
          | _ -> bad ())
  done

let in_memory () =
  {
    table = Hashtbl.create 256;
    chan = None;
    loaded = 0;
    corrupt_skipped = 0;
    hits = 0;
    misses = 0;
    appended = 0;
  }

let open_file path =
  let t = in_memory () in
  (match In_channel.with_open_bin path In_channel.input_all with
  | data -> load_into t data
  | exception Sys_error _ -> () (* first run: no cache yet *));
  let chan =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
  in
  { t with chan = Some chan }

(* --- use --------------------------------------------------------------------- *)

let find (t : t) key =
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let add (t : t) key v =
  if not (Hashtbl.mem t.table key) then begin
    Hashtbl.add t.table key v;
    (match t.chan with
    | None -> ()
    | Some ch ->
        output_string ch (frame key v);
        flush ch);
    t.appended <- t.appended + 1
  end

let stats (t : t) =
  {
    entries = Hashtbl.length t.table;
    loaded = t.loaded;
    corrupt_skipped = t.corrupt_skipped;
    hits = t.hits;
    misses = t.misses;
    appended = t.appended;
  }

let close t = match t.chan with None -> () | Some ch -> close_out ch
