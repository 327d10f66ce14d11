(* The repository's JSON codec: the one reader, string escaper and float
   writer behind the event journal ([Event]), the serve protocol and its
   meta files, and the exporters. No dependency on a JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Floats must round-trip exactly: integral values print without a
   fractional part, everything else with enough digits to reconstruct the
   double. Non-finite values have no JSON spelling; they are clamped to 0. *)
let add_float buf f =
  Buffer.add_string buf
    (if not (Float.is_finite f) then "0"
     else if Float.is_integer f && Float.abs f < 1e15 then
       Printf.sprintf "%.0f" f
     else Printf.sprintf "%.17g" f)

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          go v)
        vs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

let parse line =
  let len = String.length line in
  let pos = ref 0 in
  let bad fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt in
  let peek () = if !pos < len then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < len
      &&
      match line.[!pos] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> bad "expected %C at offset %d" c !pos
  in
  let literal word v =
    if
      !pos + String.length word <= len
      && String.sub line !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad "bad literal at offset %d" !pos
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    (* Four hex digits, validated by hand: [int_of_string "0x…"] would
       accept underscore forms like "12_3". *)
    let hex4 at =
      if at + 4 > len then bad "short \\u escape";
      let v = ref 0 in
      for i = at to at + 3 do
        let d =
          match line.[i] with
          | '0' .. '9' as c -> Char.code c - Char.code '0'
          | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
          | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
          | c -> bad "bad hex digit %C in \\u escape" c
        in
        v := (!v * 16) + d
      done;
      !v
    in
    (* Surrogates are paired up before this, so [cp] is a scalar value. *)
    let add_utf8 cp = Buffer.add_utf_8_uchar buf (Uchar.of_int cp) in
    let rec go () =
      if !pos >= len then bad "unterminated string";
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= len then bad "dangling escape";
        (match line.[!pos] with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           let code = hex4 (!pos + 1) in
           pos := !pos + 4;
           if code >= 0xD800 && code <= 0xDFFF then begin
             if code >= 0xDC00 then bad "unpaired low surrogate";
             if
               !pos + 2 >= len
               || line.[!pos + 1] <> '\\'
               || line.[!pos + 2] <> 'u'
             then bad "unpaired high surrogate";
             let low = hex4 (!pos + 3) in
             if not (low >= 0xDC00 && low <= 0xDFFF) then
               bad "invalid low surrogate";
             pos := !pos + 6;
             add_utf8 (0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00))
           end
           else add_utf8 code
         | c -> bad "bad escape \\%c" c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      while
        !pos < len && match line.[!pos] with '0' .. '9' -> true | _ -> false
      do
        incr pos
      done
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       incr pos;
       (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
       digits ()
     | _ -> ());
    let s = String.sub line start (!pos - start) in
    if !is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> bad "bad number %S" s
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> bad "bad number %S" s
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let key = parse_string () in
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ()
          | Some '}' -> incr pos
          | _ -> bad "expected ',' or '}' at offset %d" !pos
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            elements ()
          | Some ']' -> incr pos
          | _ -> bad "expected ',' or ']' at offset %d" !pos
        in
        elements ();
        List (List.rev !items)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> bad "unexpected %C at offset %d" c !pos
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> len then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* [int_of_float] is undefined outside the int range (1e19 comes back as
   0), so an integral float converts only when it fits. *)
let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List vs -> Some vs | _ -> None

let field key ~expected decode ~default v =
  match member key v with
  | None | Some Null -> Ok default
  | Some x ->
    Option.to_result
      ~none:(Printf.sprintf "%S must be %s" key expected)
      (decode x)
