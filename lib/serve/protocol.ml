type circuit = Named of string | Bench_text of string
type sampler_kind = Cholesky | Kle | Kle_qmc
type retime_edit = { gate : int; kind : string }

type call =
  | Prepare of { circuit : circuit; r : int option }
  | Run_mc of {
      circuit : circuit;
      sampler : sampler_kind;
      r : int option;
      seed : int;
      n : int;
      batch : int option;
      full : bool;
    }
  | Compare of { circuit : circuit; r : int option; seed : int; n : int }
  | Retime of {
      circuit : circuit;
      r : int option;
      n_blocks : int option;
      edit : retime_edit option;
    }
  | Stats
  | Metrics
  | Debug
  | Health
  | Shutdown

type request = {
  id : Jsonx.t;
  req_id : string option;
  deadline_ms : float option;
  call : call;
}

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Bad_params
  | Netlist_error
  | Overloaded
  | Deadline_exceeded
  | Shutting_down
  | Internal_error

(* the one table of wire names *)
let error_codes =
  [
    (Parse_error, "parse_error");
    (Invalid_request, "invalid_request");
    (Unknown_method, "unknown_method");
    (Bad_params, "bad_params");
    (Netlist_error, "netlist_error");
    (Overloaded, "overloaded");
    (Deadline_exceeded, "deadline_exceeded");
    (Shutting_down, "shutting_down");
    (Internal_error, "internal_error");
  ]

let error_code_name code = List.assoc code error_codes

let error_code_of_name name =
  List.find_map (fun (code, n) -> if String.equal n name then Some code else None) error_codes

(* the integer range a JSON number (an IEEE double) carries exactly *)
let max_exact_int = 1 lsl 53

(* ---------------------------------------------------------------- *)
(* responses *)

(* [req_id] is echoed only when the request carried one, so replies to
   clients predating the field are byte-identical to before *)
let req_id_fields = function
  | None -> []
  | Some r -> [ ("req_id", Jsonx.Str r) ]

let ok_response ~id ?req_id payload =
  Jsonx.Obj ([ ("id", id) ] @ req_id_fields req_id @ [ ("ok", payload) ])

let error_response ~id ?req_id ?field code message =
  Jsonx.Obj
    ([ ("id", id) ]
    @ req_id_fields req_id
    @ [
        ( "error",
          Jsonx.Obj
            ([ ("code", Jsonx.Str (error_code_name code)); ("message", Jsonx.Str message) ]
            @
            match field with
            | None -> []
            | Some f -> [ ("field", Jsonx.Str f) ]) );
      ])

let decode_response json =
  let id = Option.value (Jsonx.member "id" json) ~default:Jsonx.Null in
  let req_id = Option.bind (Jsonx.member "req_id" json) Jsonx.as_str in
  match (Jsonx.member "ok" json, Jsonx.member "error" json) with
  | Some payload, _ -> Ok (id, req_id, Ok payload)
  | None, Some err ->
      (* an unknown code name reads as internal_error: the client cannot
         know it is safe to retry *)
      let code =
        Option.bind (Jsonx.member "code" err) Jsonx.as_str
        |> Fun.flip Option.bind error_code_of_name
        |> Option.value ~default:Internal_error
      in
      let message =
        match Option.bind (Jsonx.member "message" err) Jsonx.as_str with
        | Some m -> m
        | None -> Jsonx.to_string err
      in
      Ok (id, req_id, Error (code, message))
  | None, None -> Error ("reply has neither ok nor error: " ^ Jsonx.to_string json)

(* ---------------------------------------------------------------- *)
(* decoding *)

exception Reject of { code : error_code; message : string; field : string option }

let reject ?field code fmt =
  Printf.ksprintf (fun message -> raise (Reject { code; message; field })) fmt

(* every method's accepted params keys; anything else is semantically
   unknown and rejected with the offending key in the error's [field] *)
let params_keys = function
  | "prepare" -> [ "circuit"; "r" ]
  | "run_mc" -> [ "circuit"; "sampler"; "r"; "seed"; "n"; "batch"; "full" ]
  | "compare" -> [ "circuit"; "r"; "seed"; "n" ]
  | "retime" -> [ "circuit"; "r"; "n_blocks"; "edit" ]
  | _ -> []

let check_keys ~where allowed obj =
  match Jsonx.as_obj obj with
  | None -> ()
  | Some fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k allowed) then
            reject ~field:k Bad_params "unknown %s key %S (accepted: %s)" where k
              (match allowed with [] -> "none" | _ -> String.concat ", " allowed))
        fields

let params_of json =
  match Jsonx.member "params" json with
  | None -> Jsonx.Obj []
  | Some (Jsonx.Obj _ as p) -> p
  | Some _ -> reject Bad_params "params must be an object"

let circuit_of params =
  match Jsonx.member "circuit" params with
  | None -> reject Bad_params "missing params.circuit"
  | Some c -> (
      check_keys ~where:"params.circuit" [ "name"; "bench" ] c;
      match (Jsonx.member "name" c, Jsonx.member "bench" c) with
      | Some name, None -> (
          match Jsonx.as_str name with
          | Some s when s <> "" -> Named s
          | _ -> reject Bad_params "circuit.name must be a non-empty string")
      | None, Some bench -> (
          match Jsonx.as_str bench with
          | Some s when s <> "" -> Bench_text s
          | _ -> reject Bad_params "circuit.bench must be a non-empty string")
      | _ -> reject Bad_params "circuit must have exactly one of name, bench")

let int_field params key ~min =
  match Jsonx.member key params with
  | None -> reject Bad_params "missing params.%s" key
  | Some v -> (
      match Jsonx.as_int v with
      | Some i when i >= min -> i
      | Some i -> reject ~field:key Bad_params "params.%s = %d out of range (min %d)" key i min
      | None -> reject Bad_params "params.%s must be an integer" key)

let opt_int_field params key ~min =
  match Jsonx.member key params with
  | None -> None
  | Some v -> (
      match Jsonx.as_int v with
      | Some i when i >= min -> Some i
      | Some i -> reject ~field:key Bad_params "params.%s = %d out of range (min %d)" key i min
      | None -> reject Bad_params "params.%s must be an integer" key)

let bool_field params key ~default =
  match Jsonx.member key params with
  | None -> default
  | Some v -> (
      match Jsonx.as_bool v with
      | Some b -> b
      | None -> reject Bad_params "params.%s must be a boolean" key)

(* [Jsonx.as_int] admits exactly |v| <= 2^53, the range the encoder
   accepts, so every seed a request can carry round-trips unchanged *)
let seed_of params =
  match Jsonx.member "seed" params with
  | None -> 42
  | Some v -> (
      match Jsonx.as_int v with
      | Some i -> i
      | None ->
          reject ~field:"seed" Bad_params "params.seed must be an integer with |seed| <= 2^53")

let sampler_of params =
  match Jsonx.member "sampler" params with
  | None -> Kle
  | Some v -> (
      match Jsonx.as_str v with
      | Some "cholesky" -> Cholesky
      | Some "kle" -> Kle
      | Some "kle-qmc" -> Kle_qmc
      | Some s -> reject Bad_params "unknown sampler %S (cholesky|kle|kle-qmc)" s
      | None -> reject Bad_params "params.sampler must be a string")

let edit_of params =
  match Jsonx.member "edit" params with
  | None -> None
  | Some e -> (
      match Jsonx.as_obj e with
      | None -> reject ~field:"edit" Bad_params "params.edit must be an object"
      | Some _ ->
          check_keys ~where:"params.edit" [ "gate"; "kind" ] e;
          let gate =
            match Jsonx.member "gate" e with
            | None -> reject ~field:"gate" Bad_params "missing params.edit.gate"
            | Some v -> (
                match Jsonx.as_int v with
                | Some i when i >= 0 -> i
                | _ ->
                    reject ~field:"gate" Bad_params
                      "params.edit.gate must be a non-negative integer")
          in
          let kind =
            match Jsonx.member "kind" e with
            | None -> reject ~field:"kind" Bad_params "missing params.edit.kind"
            | Some v -> (
                match Jsonx.as_str v with
                | Some s when s <> "" -> s
                | _ ->
                    reject ~field:"kind" Bad_params
                      "params.edit.kind must be a non-empty string")
          in
          Some { gate; kind })

let call_of ~method_ params =
  (* key whitelisting only for known methods: an unknown method must
     answer [Unknown_method], not trip over its (empty) key set first *)
  (match method_ with
  | "prepare" | "run_mc" | "compare" | "retime" | "stats" | "metrics" | "debug" | "health"
  | "shutdown" ->
      check_keys ~where:"params" (params_keys method_) params
  | _ -> ());
  match method_ with
  | "prepare" -> Prepare { circuit = circuit_of params; r = opt_int_field params "r" ~min:1 }
  | "run_mc" ->
      Run_mc
        {
          circuit = circuit_of params;
          sampler = sampler_of params;
          r = opt_int_field params "r" ~min:1;
          seed = seed_of params;
          n = int_field params "n" ~min:1;
          batch = opt_int_field params "batch" ~min:1;
          full = bool_field params "full" ~default:false;
        }
  | "compare" ->
      Compare
        {
          circuit = circuit_of params;
          r = opt_int_field params "r" ~min:1;
          seed = seed_of params;
          n = int_field params "n" ~min:1;
        }
  | "retime" ->
      Retime
        {
          circuit = circuit_of params;
          r = opt_int_field params "r" ~min:1;
          n_blocks = opt_int_field params "n_blocks" ~min:1;
          edit = edit_of params;
        }
  | "stats" -> Stats
  | "metrics" -> Metrics
  | "debug" -> Debug
  | "health" -> Health
  | "shutdown" -> Shutdown
  | m -> reject Unknown_method "unknown method %S" m

let decode_request json =
  let id = Option.value (Jsonx.member "id" json) ~default:Jsonx.Null in
  let fail ~req_id code message field =
    Error (error_response ~id ?req_id ?field code message)
  in
  match Jsonx.as_obj json with
  | None -> fail ~req_id:None Invalid_request "request must be a JSON object" None
  | Some _ -> (
      (* req_id is parsed before anything else can reject, so every
         validation error still echoes the client's correlation ID *)
      match
        match Jsonx.member "req_id" json with
        | None -> None
        | Some v -> (
            match Jsonx.as_str v with
            | Some s when s <> "" -> Some s
            | Some _ -> reject Bad_params "req_id must be non-empty"
            | None -> reject Bad_params "req_id must be a string")
      with
      | exception Reject { code; message; field } -> fail ~req_id:None code message field
      | req_id -> (
          match
            let method_ =
              match Jsonx.member "method" json with
              | Some m -> (
                  match Jsonx.as_str m with
                  | Some s -> s
                  | None -> reject Invalid_request "method must be a string")
              | None -> reject Invalid_request "missing method"
            in
            let deadline_ms =
              match Jsonx.member "deadline_ms" json with
              | None -> None
              | Some v -> (
                  match Jsonx.as_num v with
                  | Some ms when ms > 0. -> Some ms
                  | Some _ -> reject Bad_params "deadline_ms must be positive"
                  | None -> reject Bad_params "deadline_ms must be a number")
            in
            { id; req_id; deadline_ms; call = call_of ~method_ (params_of json) }
          with
          | request -> Ok request
          | exception Reject { code; message; field } -> fail ~req_id code message field))

(* ---------------------------------------------------------------- *)
(* encoding *)

let sampler_name = function
  | Cholesky -> "cholesky"
  | Kle -> "kle"
  | Kle_qmc -> "kle-qmc"

let circuit_json = function
  | Named name -> Jsonx.Obj [ ("name", Jsonx.Str name) ]
  | Bench_text text -> Jsonx.Obj [ ("bench", Jsonx.Str text) ]

(* an integer beyond 2^53 would reach the peer as a different number *)
let num_i key v =
  if v > max_exact_int || v < -max_exact_int then
    invalid_arg (Printf.sprintf "Protocol.encode_request: %s = %d is outside |v| <= 2^53" key v);
  (key, Jsonx.Num (float_of_int v))

let opt_num_i key = function None -> [] | Some v -> [ num_i key v ]

let encode_request { id; req_id; deadline_ms; call } =
  let method_, params =
    match call with
    | Prepare { circuit; r } ->
        ("prepare", [ ("circuit", circuit_json circuit) ] @ opt_num_i "r" r)
    | Run_mc { circuit; sampler; r; seed; n; batch; full } ->
        ( "run_mc",
          [ ("circuit", circuit_json circuit); ("sampler", Jsonx.Str (sampler_name sampler)) ]
          @ opt_num_i "r" r
          @ [ num_i "seed" seed; num_i "n" n ]
          @ opt_num_i "batch" batch
          @ if full then [ ("full", Jsonx.Bool true) ] else [] )
    | Compare { circuit; r; seed; n } ->
        ( "compare",
          [ ("circuit", circuit_json circuit) ]
          @ opt_num_i "r" r
          @ [ num_i "seed" seed; num_i "n" n ] )
    | Retime { circuit; r; n_blocks; edit } ->
        ( "retime",
          [ ("circuit", circuit_json circuit) ]
          @ opt_num_i "r" r
          @ opt_num_i "n_blocks" n_blocks
          @
          match edit with
          | None -> []
          | Some e ->
              [ ("edit", Jsonx.Obj [ num_i "gate" e.gate; ("kind", Jsonx.Str e.kind) ]) ] )
    | Stats -> ("stats", [])
    | Metrics -> ("metrics", [])
    | Debug -> ("debug", [])
    | Health -> ("health", [])
    | Shutdown -> ("shutdown", [])
  in
  Jsonx.Obj
    ([ ("id", id) ]
    @ (match req_id with
      | Some r -> [ ("req_id", Jsonx.Str r) ]
      | None -> [])
    @ (match deadline_ms with
      | Some ms -> [ ("deadline_ms", Jsonx.Num ms) ]
      | None -> [])
    @ [ ("method", Jsonx.Str method_) ]
    @ match params with [] -> [] | ps -> [ ("params", Jsonx.Obj ps) ])

let request_of_message = function
  | Error msg -> Error (error_response ~id:Jsonx.Null Parse_error msg)
  | Ok json -> decode_request json
