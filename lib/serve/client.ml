module Json = Obs.Json

type t = {
  fd : Unix.file_descr;
  mutable inbuf : string;
  mutable next_id : int;
}

exception Protocol_error of string

(* Connecting retries briefly: the daemon just forked by a test or
   bench script may not have bound its socket yet. *)
let connect ?(retries = 100) path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; inbuf = ""; next_id = 0 }
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      go (n - 1)
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go retries

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all t s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring t.fd s !off (len - !off)
  done

let read_line t =
  let rec go () =
    match String.index_opt t.inbuf '\n' with
    | Some i ->
      let line = String.sub t.inbuf 0 i in
      t.inbuf <- String.sub t.inbuf (i + 1) (String.length t.inbuf - i - 1);
      line
    | None ->
      let chunk = Bytes.create 65536 in
      let n = Unix.read t.fd chunk 0 (Bytes.length chunk) in
      if n = 0 then raise (Protocol_error "connection closed by server");
      t.inbuf <- t.inbuf ^ Bytes.sub_string chunk 0 n;
      go ()
  in
  go ()

let request_line t ~meth ?deadline_ms params =
  let id = t.next_id in
  t.next_id <- id + 1;
  let fields =
    [
      ("v", Json.Int Protocol.version);
      ("id", Json.Int id);
      ("method", Json.Str meth);
      ("params", Json.Obj params);
    ]
    @
    match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Float ms) ]
    | None -> []
  in
  (Json.to_string (Json.Obj fields) ^ "\n", id)

let read_reply t ~id =
  let line = read_line t in
  match Protocol.parse_reply line with
  | Error msg -> raise (Protocol_error msg)
  | Ok { reply_id; payload } ->
    (match reply_id with
     | Json.Int i when i = id -> ()
     | Json.Null -> ()  (* unframeable request: server couldn't echo *)
     | _ -> raise (Protocol_error "reply id does not match request id"));
    payload

let call t ~meth ?deadline_ms params =
  let line, id = request_line t ~meth ?deadline_ms params in
  write_all t line;
  read_reply t ~id

(* Pipelining: all request lines leave in one write so they land in one
   daemon read round. Replies come back in request order. *)
let call_many t reqs =
  let lines =
    List.map
      (fun (meth, deadline_ms, params) -> request_line t ~meth ?deadline_ms params)
      reqs
  in
  write_all t (String.concat "" (List.map fst lines));
  List.map (fun (_, id) -> read_reply t ~id) lines

let call_raw t line =
  write_all t (line ^ "\n");
  read_line t
