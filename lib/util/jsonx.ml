type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- *)
(* parsing *)

exception Parse of string

let err pos fmt = Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at byte %d" m pos))) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | _ -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> err c.pos "expected %c, found %c" ch x
  | None -> err c.pos "expected %c, found end of input" ch

let expect_lit c lit value =
  if
    c.pos + String.length lit <= String.length c.s
    && String.sub c.s c.pos (String.length lit) = lit
  then begin
    c.pos <- c.pos + String.length lit;
    value
  end
  else err c.pos "invalid literal"

let add_utf8 b code =
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek c with
      | Some ('0' .. '9' as ch) -> Char.code ch - Char.code '0'
      | Some ('a' .. 'f' as ch) -> Char.code ch - Char.code 'a' + 10
      | Some ('A' .. 'F' as ch) -> Char.code ch - Char.code 'A' + 10
      | _ -> err c.pos "invalid \\u escape"
    in
    advance c;
    v := (!v lsl 4) lor d
  done;
  !v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> err c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        (match peek c with
        | Some '"' -> advance c; Buffer.add_char b '"'
        | Some '\\' -> advance c; Buffer.add_char b '\\'
        | Some '/' -> advance c; Buffer.add_char b '/'
        | Some 'b' -> advance c; Buffer.add_char b '\b'
        | Some 'f' -> advance c; Buffer.add_char b '\012'
        | Some 'n' -> advance c; Buffer.add_char b '\n'
        | Some 'r' -> advance c; Buffer.add_char b '\r'
        | Some 't' -> advance c; Buffer.add_char b '\t'
        | Some 'u' ->
            advance c;
            let hi = hex4 c in
            if hi >= 0xD800 && hi <= 0xDBFF then begin
              (* surrogate pair *)
              expect c '\\';
              expect c 'u';
              let lo = hex4 c in
              if lo < 0xDC00 || lo > 0xDFFF then err c.pos "unpaired surrogate";
              add_utf8 b (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
            end
            else add_utf8 b hi
        | _ -> err c.pos "invalid escape");
        loop ())
    | Some ch when Char.code ch < 0x20 -> err c.pos "unescaped control character"
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let consume_while pred =
    while (match peek c with Some ch -> pred ch | None -> false) do
      advance c
    done
  in
  if peek c = Some '-' then advance c;
  consume_while (function '0' .. '9' -> true | _ -> false);
  if peek c = Some '.' then begin
    advance c;
    consume_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      consume_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  match float_of_string_opt text with
  | Some v -> Num v
  | None -> err start "invalid number %S" text

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> err c.pos "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          fields := (key, v) :: !fields;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; members ()
          | Some '}' -> advance c
          | _ -> err c.pos "expected , or } in object"
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value c in
          items := v :: !items;
          skip_ws c;
          match peek c with
          | Some ',' -> advance c; elements ()
          | Some ']' -> advance c
          | _ -> err c.pos "expected , or ] in array"
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' -> Str (parse_string c)
  | Some 't' -> expect_lit c "true" (Bool true)
  | Some 'f' -> expect_lit c "false" (Bool false)
  | Some 'n' -> expect_lit c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> err c.pos "unexpected character %C" ch

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos < String.length s then
        Error (Printf.sprintf "trailing characters at byte %d" c.pos)
      else Ok v
  | exception Parse msg -> Error msg

(* ---------------------------------------------------------------- *)
(* printing *)

let escape_into b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | ch when Char.code ch < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"'

let number_to_string v =
  if Float.is_nan v then "null" (* JSON has no NaN; degrade explicitly *)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if v = Float.infinity then "1e999"
  else if v = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" v

let to_string v =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num v -> Buffer.add_string b (number_to_string v)
    | Str s -> escape_into b s
    | List items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            escape_into b k;
            Buffer.add_char b ':';
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* accessors *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let as_str = function Str s -> Some s | _ -> None
let as_num = function Num v -> Some v | _ -> None

let as_int = function
  | Num v when Float.is_integer v && Float.abs v <= 2. ** 53. -> Some (int_of_float v)
  | _ -> None

let as_bool = function Bool v -> Some v | _ -> None
let as_obj = function Obj fields -> Some fields | _ -> None
