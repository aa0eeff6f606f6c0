module C = Persist.Codec

let magic0 = '\xB5'
let magic1 = '\x7A'
let version = 3
let max_payload = 16 * 1024 * 1024

type read_error = [ `Eof | `Corrupt of string ]

(* ---------------------------------------------------------------- *)
(* framing *)

let frame payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Wire.frame: payload exceeds max_payload";
  let w = C.writer () in
  C.write_u8 w (Char.code magic0);
  C.write_u8 w (Char.code magic1);
  C.write_u8 w version;
  C.write_fixed32 w len;
  C.contents w ^ payload

let header_checks rd =
  let m0 = C.read_u8 rd in
  let m1 = C.read_u8 rd in
  let ver = C.read_u8 rd in
  if m0 <> Char.code magic0 || m1 <> Char.code magic1 then
    Error (`Corrupt (Printf.sprintf "bad frame magic 0x%02x%02x" m0 m1))
  else if ver <> version then
    Error (`Corrupt (Printf.sprintf "unsupported wire version %d (expected %d)" ver version))
  else
    let len = C.read_fixed32 rd in
    (* reject before allocating: the framing analogue of the read_mat guard *)
    if len > max_payload then
      Error (`Corrupt (Printf.sprintf "frame length %d exceeds cap %d" len max_payload))
    else Ok len

let unframe s =
  let rd = C.reader s in
  try
    match header_checks rd with
    | Error _ as e -> e
    | Ok len ->
        if C.remaining rd <> len then
          Error
            (`Corrupt
              (Printf.sprintf "frame length %d does not match %d payload bytes" len
                 (C.remaining rd)))
        else Ok (String.sub s (C.pos rd) len)
  with C.Error msg -> Error (`Corrupt msg)

let read_frame ?(magic_consumed = false) ic =
  match
    if magic_consumed then Some magic0
    else try Some (input_char ic) with End_of_file -> None
  with
  | None -> Error `Eof
  | Some m0 -> (
      try
        let rest = Bytes.create 6 in
        really_input ic rest 0 6;
        let header = Printf.sprintf "%c%s" m0 (Bytes.to_string rest) in
        let rd = C.reader header in
        match header_checks rd with
        | Error _ as e -> e
        | Ok len ->
            let payload = Bytes.create len in
            really_input ic payload 0 len;
            Ok (Bytes.unsafe_to_string payload)
      with End_of_file -> Error (`Corrupt "truncated frame"))

(* ---------------------------------------------------------------- *)
(* structured values *)

let max_depth = 1000

let rec encode_jsonx w = function
  | Jsonx.Null -> C.write_u8 w 0
  | Jsonx.Bool false -> C.write_u8 w 1
  | Jsonx.Bool true -> C.write_u8 w 2
  | Jsonx.Num v ->
      C.write_u8 w 3;
      C.write_float w v
  | Jsonx.Str s ->
      C.write_u8 w 4;
      C.write_string w s
  | Jsonx.List ((_ :: _) as items)
    when List.for_all (function Jsonx.Num _ -> true | _ -> false) items ->
      (* the payload-heavy case: numeric vectors ship as raw IEEE-754 bytes *)
      C.write_u8 w 7;
      C.write_float_array w
        (Array.of_list (List.map (function Jsonx.Num v -> v | _ -> assert false) items))
  | Jsonx.List items ->
      C.write_u8 w 5;
      C.write_uint w (List.length items);
      List.iter (encode_jsonx w) items
  | Jsonx.Obj fields ->
      C.write_u8 w 6;
      C.write_uint w (List.length fields);
      List.iter
        (fun (k, v) ->
          C.write_string w k;
          encode_jsonx w v)
        fields

let decode_jsonx rd =
  let count_guard n what =
    if n > C.remaining rd then
      raise (C.Error (Printf.sprintf "%s length %d exceeds remaining input" what n))
  in
  let rec go depth =
    if depth > max_depth then
      raise (C.Error (Printf.sprintf "value nesting exceeds depth cap %d" max_depth));
    match C.read_u8 rd with
    | 0 -> Jsonx.Null
    | 1 -> Jsonx.Bool false
    | 2 -> Jsonx.Bool true
    | 3 -> Jsonx.Num (C.read_float rd)
    | 4 -> Jsonx.Str (C.read_string rd)
    | 5 ->
        let n = C.read_uint rd in
        count_guard n "list";
        let acc = ref [] in
        for _ = 1 to n do
          acc := go (depth + 1) :: !acc
        done;
        Jsonx.List (List.rev !acc)
    | 6 ->
        let n = C.read_uint rd in
        count_guard n "object";
        let acc = ref [] in
        for _ = 1 to n do
          let k = C.read_string rd in
          let v = go (depth + 1) in
          acc := (k, v) :: !acc
        done;
        Jsonx.Obj (List.rev !acc)
    | 7 -> Jsonx.List (Array.to_list (Array.map (fun v -> Jsonx.Num v) (C.read_float_array rd)))
    | t -> raise (C.Error (Printf.sprintf "unknown value tag %d" t))
  in
  go 0

(* ---------------------------------------------------------------- *)
(* messages *)

let encode wire json =
  match wire with
  | `Json -> Jsonx.to_string json
  | `Binary ->
      let w = C.writer () in
      encode_jsonx w json;
      frame (C.contents w)

let decode wire body =
  match wire with
  | `Json -> Jsonx.parse body
  | `Binary -> (
      let rd = C.reader body in
      try
        let json = decode_jsonx rd in
        C.expect_end rd;
        Ok json
      with C.Error msg -> Error msg)
