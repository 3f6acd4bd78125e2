(* Minimal JSON tree: enough to build every report/stats object the
   tool emits with correct escaping, and to parse them back in tests
   and CI smoke checks. No dependency beyond the stdlib. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN/infinity literals; map them to null. The shortest
   round-tripping decimal form keeps reports readable. Integral values
   keep a ".0" marker so a reader (and our own parser) sees a float,
   not an int. *)
let float_to_string f =
  if not (Float.is_finite f) then "null"
  else begin
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    let is_intlike =
      String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
    in
    if is_intlike then s ^ ".0" else s
  end

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | Str s -> escape_to buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  to_buffer buf j;
  Buffer.contents buf

let to_file path j =
  let oc = open_out path in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

(* Resource bounds for input that arrives from outside the process (the
   quantd socket). Both limits turn into an ordinary [Parse_error] /
   [Error _], never a stack overflow or an unbounded allocation:
   [max_bytes] is checked before the scan starts, [max_depth] on every
   '{' / '[' descent (the parser recurses once per nesting level, so the
   depth bound is also the recursion bound). *)
type limits = { max_bytes : int; max_depth : int }

let default_limits = { max_bytes = 8 * 1024 * 1024; max_depth = 128 }

let parse_with ?limits s =
  let n = String.length s in
  (match limits with
   | Some l when n > l.max_bytes ->
     raise
       (Parse_error
          (Printf.sprintf "input too large: %d bytes (limit %d)" n l.max_bytes))
   | _ -> ());
  let max_depth = match limits with Some l -> l.max_depth | None -> max_int in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected '%s'" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'; advance ()
         | Some '\\' -> Buffer.add_char buf '\\'; advance ()
         | Some '/' -> Buffer.add_char buf '/'; advance ()
         | Some 'n' -> Buffer.add_char buf '\n'; advance ()
         | Some 'r' -> Buffer.add_char buf '\r'; advance ()
         | Some 't' -> Buffer.add_char buf '\t'; advance ()
         | Some 'b' -> Buffer.add_char buf '\b'; advance ()
         | Some 'f' -> Buffer.add_char buf '\012'; advance ()
         | Some 'u' ->
           advance ();
           if !pos + 4 > n then fail "truncated \\u escape";
           let code = int_of_string ("0x" ^ String.sub s !pos 4) in
           pos := !pos + 4;
           (* Only BMP code points below 0x80 reproduce exactly; others
              are stored UTF-8 encoded, matching what we emit. *)
           if code < 0x80 then Buffer.add_char buf (Char.chr code)
           else if code < 0x800 then begin
             Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
           else begin
             Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
             Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
             Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
           end
         | _ -> fail "bad escape");
        loop ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.contains text '.' || String.contains text 'e'
       || String.contains text 'E'
    then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      if depth >= max_depth then fail "nesting too deep";
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      if depth >= max_depth then fail "nesting too deep";
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = parse_with s

(* Untrusted input (socket frames): every malformed, truncated, oversized
   or over-nested input comes back as [Error msg] — nothing escapes as an
   exception, which the daemon's request loop relies on. *)
let parse_untrusted ?(limits = default_limits) s =
  match parse_with ~limits s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  (* A malformed numeric token can escape [float_of_string]/[int_of_string]
     as [Failure]; fold it into the same result shape. *)
  | exception Failure msg -> Error ("invalid number: " ^ msg)
