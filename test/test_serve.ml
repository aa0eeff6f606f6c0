(* Serving layer: JSON reader/writer, protocol decode (every typed error
   code), the LRU hot tier, and the concurrent server end-to-end —
   including the satellite contract that Bench_format parse errors surface
   as typed [netlist_error] protocol errors. *)

module Jsonx = Serve.Jsonx
module Protocol = Serve.Protocol
module Lru = Serve.Lru
module Server = Serve.Server

(* ---------- jsonx ---------- *)

let parse_ok s =
  match Jsonx.parse s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_jsonx_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Jsonx.to_string (parse_ok s)))
    [
      "null"; "true"; "false"; "0"; "-7"; "123456789"; "1.5"; "-0.25";
      "\"\""; "\"abc\""; "[]"; "[1,2,3]"; "{}";
      {|{"a":1,"b":[true,null],"c":{"d":"e"}}|};
    ]

let test_jsonx_escapes () =
  Alcotest.(check (option string)) "basic escapes" (Some "a\"b\\c/\n\t\r\b\012")
    (Jsonx.as_str (parse_ok {|"a\"b\\c\/\n\t\r\b\f"|}));
  Alcotest.(check (option string)) "bmp escape" (Some "\xe2\x82\xac")
    (Jsonx.as_str (parse_ok {|"\u20ac"|}));
  Alcotest.(check (option string)) "surrogate pair" (Some "\xf0\x9d\x84\x9e")
    (Jsonx.as_str (parse_ok {|"\ud834\udd1e"|}));
  (* output escapes control characters and quotes back to parseable form *)
  let s = "line1\nline2\t\"q\"" in
  Alcotest.(check (option string)) "escape roundtrip" (Some s)
    (Jsonx.as_str (parse_ok (Jsonx.to_string (Jsonx.Str s))))

let test_jsonx_numbers () =
  Alcotest.(check (option int)) "int" (Some 42) (Jsonx.as_int (parse_ok "42"));
  Alcotest.(check (option int)) "exp" (Some 1200) (Jsonx.as_int (parse_ok "1.2e3"));
  Alcotest.(check (option int)) "not integral" None (Jsonx.as_int (parse_ok "1.5"));
  Alcotest.(check string) "integral prints as int" "7" (Jsonx.to_string (Jsonx.Num 7.0));
  Alcotest.(check string) "fraction keeps point" "0.5" (Jsonx.to_string (Jsonx.Num 0.5));
  Alcotest.(check string) "nan is null" "null" (Jsonx.to_string (Jsonx.Num Float.nan))

let test_jsonx_errors () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | Ok v -> Alcotest.failf "parse %S should fail, got %s" s (Jsonx.to_string v)
      | Error _ -> ())
    [
      ""; "{"; "["; "tru"; "nul"; "{\"a\"}"; "{\"a\":}"; "[1,]"; "{,}"; "\"unterminated";
      "\"bad \\x escape\""; "+1"; "1 2"; "{\"a\":1} trailing"; "\"\\ud834\"";
    ]

let test_jsonx_member () =
  let v = parse_ok {|{"a":1,"b":"x"}|} in
  Alcotest.(check (option int)) "a" (Some 1) (Option.bind (Jsonx.member "a" v) Jsonx.as_int);
  Alcotest.(check bool) "missing" true (Jsonx.member "zz" v = None);
  Alcotest.(check bool) "non-object" true (Jsonx.member "a" (Jsonx.Num 1.0) = None)

(* ---------- protocol ---------- *)

let decode_line line =
  match Jsonx.parse line with
  | Ok json -> Protocol.decode_request json
  | Error msg -> Alcotest.failf "not JSON: %S (%s)" line msg

let two53 = 1 lsl 53

(* a structured request as one JSON line *)
let json_line request = Jsonx.to_string (Protocol.encode_request request)

let test_protocol_decode_ok () =
  (match decode_line {|{"id":1,"method":"stats"}|} with
  | Ok { id = Jsonx.Num 1.0; req_id = None; deadline_ms = None; call = Protocol.Stats } -> ()
  | _ -> Alcotest.fail "stats decode");
  (match
     decode_line
       {|{"id":"x","deadline_ms":250,"method":"run_mc","params":{"circuit":{"name":"c17"},"sampler":"kle-qmc","n":100,"seed":7,"r":12,"batch":64}}|}
   with
  | Ok
      {
        id = Jsonx.Str "x";
        req_id = None;
        deadline_ms = Some 250.0;
        call =
          Protocol.Run_mc
            { circuit = Protocol.Named "c17"; sampler = Protocol.Kle_qmc;
              r = Some 12; seed = 7; n = 100; batch = Some 64; full = false };
      } -> ()
  | _ -> Alcotest.fail "run_mc decode");
  (match
     decode_line {|{"id":2,"method":"prepare","params":{"circuit":{"bench":"INPUT(a)\n"}}}|}
   with
  | Ok { call = Protocol.Prepare { circuit = Protocol.Bench_text _; r = None }; _ } -> ()
  | _ -> Alcotest.fail "prepare bench decode")

let all_error_codes =
  Protocol.
    [
      Parse_error; Invalid_request; Unknown_method; Bad_params; Netlist_error; Overloaded;
      Deadline_exceeded; Shutting_down; Internal_error;
    ]

let test_protocol_responses () =
  let ok = Protocol.ok_response ~id:(Jsonx.Num 3.0) (Jsonx.Obj [ ("x", Jsonx.Num 1.0) ]) in
  Alcotest.(check string) "ok" {|{"id":3,"ok":{"x":1}}|} (Jsonx.to_string ok);
  let err = Protocol.error_response ~id:(Jsonx.Str "a") Protocol.Overloaded "queue full" in
  Alcotest.(check string) "error"
    {|{"id":"a","error":{"code":"overloaded","message":"queue full"}}|}
    (Jsonx.to_string err);
  (match Protocol.decode_response err with
  | Ok (Jsonx.Str "a", None, Error (Protocol.Overloaded, "queue full")) -> ()
  | _ -> Alcotest.fail "error response decode");
  (* one name table serves both directions *)
  List.iter
    (fun code ->
      let name = Protocol.error_code_name code in
      Alcotest.(check bool) ("code name roundtrip: " ^ name) true
        (Protocol.error_code_of_name name = Some code))
    all_error_codes;
  (match
     Protocol.decode_response
       (Jsonx.Obj [ ("id", Jsonx.Null); ("error", Jsonx.Obj [ ("code", Jsonx.Str "zap") ]) ])
   with
  | Ok (_, _, Error (Protocol.Internal_error, _)) -> ()
  | _ -> Alcotest.fail "an unknown code name reads as internal_error");
  match Protocol.decode_response (Jsonx.Obj [ ("id", Jsonx.Null) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a reply with neither ok nor error accepted"

(* ---------- lru ---------- *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touch a so b is the oldest *)
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "length" 2 (Lru.length c);
  let s = Lru.stats c in
  Alcotest.(check int) "evictions" 1 s.Lru.evictions;
  Alcotest.(check int) "misses" 1 s.Lru.misses

let test_lru_overwrite_and_remove () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  Alcotest.(check int) "overwrite keeps one entry" 1 (Lru.length c);
  Alcotest.(check (option int)) "new value" (Some 10) (Lru.find c "a");
  Lru.remove c "a";
  Alcotest.(check (option int)) "removed" None (Lru.find c "a");
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (Lru.create ~capacity:0 : int Lru.t))

let test_lru_recency_sequence () =
  (* exercises the intrusive recency list: overwrites refresh recency,
     removes unlink interior nodes, and every eviction takes the true LRU
     entry *)
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  (* recency c > b > a; overwriting a moves it to the front *)
  Lru.add c "a" 10;
  Lru.add c "d" 4;
  Alcotest.(check (option int)) "b was the LRU entry" None (Lru.find c "b");
  Alcotest.(check (option int)) "refreshed a survives" (Some 10) (Lru.find c "a");
  (* recency a > d > c; unlink the middle node, then refill *)
  Lru.remove c "d";
  Lru.add c "e" 5;
  Alcotest.(check int) "free slot reused without eviction" 3 (Lru.length c);
  Lru.add c "f" 6;
  Alcotest.(check (option int)) "c was the LRU entry" None (Lru.find c "c");
  Alcotest.(check (option int)) "e kept" (Some 5) (Lru.find c "e");
  Alcotest.(check (option int)) "a kept" (Some 10) (Lru.find c "a");
  Alcotest.(check int) "two evictions" 2 (Lru.stats c).Lru.evictions

let test_lru_matches_reference_model () =
  (* drive the cache and a naive most-recent-first assoc list through the
     same deterministic op sequence; they must agree at every step *)
  let cap = 4 in
  let c = Lru.create ~capacity:cap in
  let model = ref ([] : (string * int) list) in
  let m_remove k = model := List.filter (fun (k', _) -> not (String.equal k' k)) !model in
  for step = 0 to 999 do
    let k = "k" ^ string_of_int (step * 7 mod 6) in
    (match step * 13 mod 3 with
    | 0 ->
        Lru.add c k step;
        if not (List.mem_assoc k !model) && List.length !model >= cap then
          model := List.filteri (fun i _ -> i < cap - 1) !model;
        m_remove k;
        model := (k, step) :: !model
    | 1 ->
        let got = Lru.find c k in
        let expect = List.assoc_opt k !model in
        Alcotest.(check (option int)) (Printf.sprintf "find at step %d" step) expect got;
        (match expect with
        | Some v ->
            m_remove k;
            model := (k, v) :: !model
        | None -> ())
    | _ ->
        Lru.remove c k;
        m_remove k);
    Alcotest.(check int)
      (Printf.sprintf "length at step %d" step)
      (List.length !model) (Lru.length c)
  done;
  (* final state: every model entry is present with the model's value *)
  List.iter
    (fun (k, v) -> Alcotest.(check (option int)) ("final " ^ k) (Some v) (Lru.find c k))
    !model

(* ---------- server end-to-end ---------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec scan i = i + n <= m && (String.sub s i n = sub || scan (i + 1)) in
  n = 0 || scan 0

(* tiny inline netlist so server tests stay fast *)
let tiny_bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOT(x)\n"

let escape_bench s =
  String.concat "" (List.map (function '\n' -> "\\n" | c -> String.make 1 c)
      (List.init (String.length s) (String.get s)))

(* fast KLE config: coarse mesh, dense eigensolve *)
let test_config =
  {
    Server.default_config with
    Server.kle =
      { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction = 0.05 };
  }

(* synchronous call helper: submit and wait for the single reply *)
let sync_call server line =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  Server.submit server line ~reply:(fun r ->
      Mutex.protect m (fun () ->
          slot := Some r;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while !slot = None do
        Condition.wait c m
      done;
      Option.get !slot)

let reply_json line =
  match Jsonx.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "reply not JSON: %s (%s)" line msg

let expect_error line expected =
  let v = reply_json line in
  match Option.bind (Jsonx.member "error" v) (Jsonx.member "code") with
  | Some (Jsonx.Str code) ->
      Alcotest.(check string) "error code" (Protocol.error_code_name expected) code;
      Option.value ~default:""
        (Option.bind
           (Option.bind (Jsonx.member "error" v) (Jsonx.member "message"))
           Jsonx.as_str)
  | _ -> Alcotest.failf "expected %s error, got %s" (Protocol.error_code_name expected) line

let expect_ok line =
  let v = reply_json line in
  match Jsonx.member "ok" v with
  | Some payload -> payload
  | None -> Alcotest.failf "expected ok, got %s" line

let with_server ?(config = test_config) f =
  let server = Server.create config in
  Fun.protect ~finally:(fun () -> Server.drain server) (fun () -> f server)

let run_mc_line ?(id = 1) ?(sampler = "cholesky") ?(n = 32) () =
  Printf.sprintf
    {|{"id":%d,"method":"run_mc","params":{"circuit":{"bench":"%s"},"sampler":"%s","n":%d,"seed":3}}|}
    id (escape_bench tiny_bench) sampler n

let float_exact =
  Alcotest.testable
    (fun ppf v -> Format.fprintf ppf "%h" v)
    (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)

let test_server_run_mc_ok () =
  with_server @@ fun server ->
  let payload = expect_ok (sync_call server (run_mc_line ())) in
  Alcotest.(check (option int)) "n_samples" (Some 32)
    (Option.bind (Jsonx.member "n_samples" payload) Jsonx.as_int);
  (match Option.bind (Jsonx.member "worst_mean" payload) Jsonx.as_num with
  | Some m when Float.is_finite m && m > 0.0 -> ()
  | _ -> Alcotest.fail "finite positive worst_mean expected");
  (* the reply is deterministic: same request, same numbers (cache hit path) *)
  let payload2 = expect_ok (sync_call server (run_mc_line ())) in
  Alcotest.(check (option float_exact)) "deterministic worst_mean"
    (Option.bind (Jsonx.member "worst_mean" payload) Jsonx.as_num)
    (Option.bind (Jsonx.member "worst_mean" payload2) Jsonx.as_num)

let test_server_cache_tiers () =
  with_server @@ fun server ->
  let line =
    Printf.sprintf
      {|{"id":9,"method":"run_mc","params":{"circuit":{"bench":"%s"},"sampler":"kle","n":16,"seed":1}}|}
      (escape_bench tiny_bench)
  in
  let first = expect_ok (sync_call server line) in
  let tier j = Option.bind (Jsonx.member j first) Jsonx.as_str in
  Alcotest.(check (option string)) "first setup is a miss" (Some "miss")
    (tier "cache_setup");
  let second = expect_ok (sync_call server line) in
  Alcotest.(check (option string)) "second setup from memory" (Some "hit-mem")
    (Option.bind (Jsonx.member "cache_setup" second) Jsonx.as_str);
  Alcotest.(check (option string)) "second models from memory" (Some "hit-mem")
    (Option.bind (Jsonx.member "cache_models" second) Jsonx.as_str)

let test_server_typed_errors () =
  with_server @@ fun server ->
  ignore (expect_error (sync_call server "{nope") Protocol.Parse_error);
  ignore (expect_error (sync_call server {|{"id":1,"method":"warp"}|}) Protocol.Unknown_method);
  ignore
    (expect_error
       (sync_call server {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"}}}|})
       Protocol.Bad_params);
  let msg =
    expect_error
      (sync_call server
         {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"no-such-circuit"},"n":8}}|})
      Protocol.Netlist_error
  in
  Alcotest.(check bool) "names the circuit" true (contains ~sub:"no-such-circuit" msg)

(* satellite contract: every Bench_format parse-error path maps to a typed
   [netlist_error] protocol error carrying the parser's message *)
let test_server_bench_errors_are_typed () =
  with_server @@ fun server ->
  let cases =
    [
      ("y = NOT(ghost)\n", "undefined signal \"ghost\"");
      ("x = NOT(y)\ny = NOT(x)\n", "combinational loop through");
      ("INPUT(a)\nINPUT(b)\ny = NOT(a, b)\n", "unsupported function NOT/2");
      ("INPUT(a)\ny = FROB(a)\n", "unsupported function FROB/1");
      ("INPUT(a)\ny = NOT a\n", "malformed gate definition");
      ("what is this line\n", "expected INPUT(..), OUTPUT(..) or assignment");
    ]
  in
  List.iter
    (fun (bench, expected_substr) ->
      let line =
        Printf.sprintf
          {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}}}|} (escape_bench bench)
      in
      let msg = expect_error (sync_call server line) Protocol.Netlist_error in
      Alcotest.(check bool)
        (Printf.sprintf "%S carries %S (got %S)" bench expected_substr msg)
        true (contains ~sub:expected_substr msg))
    cases

(* [line] submitted to the server, and its reply tree *)
let answer server line = reply_json (sync_call server line)

let error_member key reply =
  Option.bind (Option.bind (Jsonx.member "error" reply) (Jsonx.member key)) Jsonx.as_str

let test_protocol_decode_errors () =
  with_server @@ fun server ->
  let check_code line expected =
    Alcotest.(check (option string)) line
      (Some (Protocol.error_code_name expected))
      (error_member "code" (answer server line))
  in
  check_code "{not json" Protocol.Parse_error;
  check_code "[1,2]" Protocol.Invalid_request;
  check_code "\"hi\"" Protocol.Invalid_request;
  check_code {|{"id":1}|} Protocol.Invalid_request;
  check_code {|{"id":1,"method":"frobnicate"}|} Protocol.Unknown_method;
  check_code {|{"id":1,"method":"run_mc"}|} Protocol.Bad_params;
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"}}}|} Protocol.Bad_params;
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"},"n":0}}|}
    Protocol.Bad_params;
  (* a range reject names its key, as the unknown-key reject does *)
  Alcotest.(check (option string)) "n = 0 names field n" (Some "n")
    (error_member "field"
       (answer server
          {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"},"n":0}}|}));
  check_code {|{"id":1,"method":"run_mc","params":{"circuit":{"name":"c17"},"n":10,"sampler":"bogus"}}|}
    Protocol.Bad_params;
  check_code {|{"id":1,"method":"prepare","params":{}}|} Protocol.Bad_params;
  check_code {|{"id":1,"deadline_ms":-5,"method":"stats"}|} Protocol.Bad_params;
  check_code {|{"id":1,"req_id":"","method":"stats"}|} Protocol.Bad_params;
  (* the id is still recovered for correlation whenever the line parses *)
  let reply = answer server {|{"id":77,"method":"frobnicate"}|} in
  Alcotest.(check (option int)) "id recovered" (Some 77)
    (Option.bind (Jsonx.member "id" reply) Jsonx.as_int);
  let reply = answer server "{not json" in
  Alcotest.(check bool) "unparseable id is null" true (Jsonx.member "id" reply = Some Jsonx.Null)

(* satellite contract: a semantically unknown params key is a typed
   [bad_params] naming the offending key in the error's [field] member,
   with the request's [req_id] still echoed *)
let test_protocol_unknown_param_key () =
  with_server @@ fun server ->
  let check_reject line ~field ~req_id =
    let reply = answer server line in
    Alcotest.(check (option string)) "code"
      (Some (Protocol.error_code_name Protocol.Bad_params))
      (error_member "code" reply);
    Alcotest.(check (option string)) "field" (Some field) (error_member "field" reply);
    Alcotest.(check (option string)) "req_id echoed" req_id
      (Option.bind (Jsonx.member "req_id" reply) Jsonx.as_str);
    let message = Option.value ~default:"" (error_member "message" reply) in
    Alcotest.(check bool)
      (Printf.sprintf "message %S names %S" message field)
      true (contains ~sub:field message)
  in
  check_reject
    {|{"id":1,"req_id":"cli-9","method":"retime","params":{"circuit":{"name":"c17"},"bogus":1}}|}
    ~field:"bogus" ~req_id:(Some "cli-9");
  (* nested objects are validated too: circuit and edit *)
  check_reject
    {|{"id":2,"method":"run_mc","params":{"circuit":{"name":"c17","zap":true},"n":8}}|}
    ~field:"zap" ~req_id:None;
  check_reject
    {|{"id":3,"method":"retime","params":{"circuit":{"name":"c17"},"edit":{"gate":0,"kind":"inv","why":"x"}}}|}
    ~field:"why" ~req_id:None;
  (* unknown methods still answer unknown_method, not bad_params *)
  Alcotest.(check (option string)) "unknown method wins"
    (Some (Protocol.error_code_name Protocol.Unknown_method))
    (error_member "code"
       (answer server {|{"id":4,"method":"warp","params":{"bogus":1}}|}))

(* one seed range, |seed| <= 2^53: the encoder refuses a seed it cannot
   carry exactly, and a larger seed on the wire is a [bad_params] naming
   the field *)
let test_protocol_seed_range () =
  let request seed =
    {
      Protocol.id = Jsonx.Num 1.0;
      req_id = Some "seed-edge";
      deadline_ms = None;
      call =
        Protocol.Run_mc
          { circuit = Protocol.Named "c17"; sampler = Protocol.Kle; r = None; seed; n = 4;
            batch = None; full = false };
    }
  in
  List.iter
    (fun seed ->
      match Jsonx.parse (json_line (request seed)) with
      | Ok back ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d roundtrips" seed)
            true
            (Protocol.decode_request back = Ok (request seed))
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg)
    [ two53; -two53; 0 ];
  List.iter
    (fun seed ->
      match Protocol.encode_request (request seed) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "seed %d encoded though it cannot roundtrip" seed)
    [ two53 + 1; -two53 - 1; max_int; min_int ];
  with_server @@ fun server ->
  List.iter
    (fun seed_text ->
      let reply =
        answer server
          (Printf.sprintf
             {|{"id":5,"req_id":"seed-edge","method":"run_mc","params":{"circuit":{"name":"c17"},"n":4,"seed":%s}}|}
             seed_text)
      in
      Alcotest.(check (option string)) ("code for seed " ^ seed_text)
        (Some (Protocol.error_code_name Protocol.Bad_params))
        (error_member "code" reply);
      Alcotest.(check (option string)) "field" (Some "seed") (error_member "field" reply);
      Alcotest.(check (option string)) "req_id echoed" (Some "seed-edge")
        (Option.bind (Jsonx.member "req_id" reply) Jsonx.as_str))
    (* 2^53 + 2 (the first double past the range), its negation, max_int
       and a fraction *)
    [ "9007199254740994"; "-9007199254740994"; string_of_int max_int; "1.5" ]

let retime_line ?(id = 1) ?edit () =
  let edit_field =
    match edit with
    | None -> ""
    | Some (gate, kind) -> Printf.sprintf {|,"edit":{"gate":%d,"kind":"%s"}|} gate kind
  in
  Printf.sprintf
    {|{"id":%d,"method":"retime","params":{"circuit":{"bench":"%s"}%s}}|}
    id (escape_bench tiny_bench) edit_field

(* the server's models under [test_config]: one per process parameter *)
let retime_models =
  lazy
    (Array.map
       (fun (p : Ssta.Process.parameter) ->
         Ssta.Algorithm2.model ~config:test_config.Server.kle ?jobs:test_config.Server.jobs
           p.Ssta.Process.kernel)
       (Ssta.Process.paper_default ()).Ssta.Process.parameters)

(* what a served retime must equal: a flat single-pass analysis of the same
   (edited) inline netlist, placed and modelled as the server does *)
let flat_retime ?edit text =
  let netlist =
    match Circuit.Bench_format.parse ~name:"inline" text with
    | Ok nl -> nl
    | Error msg -> Alcotest.fail msg
  in
  let netlist =
    match edit with
    | None -> netlist
    | Some e -> (
        match Hier.Edit.apply netlist e with Ok nl -> nl | Error msg -> Alcotest.fail msg)
  in
  let setup =
    Ssta.Experiment.setup_circuit ~placement_seed:test_config.Server.placement_seed netlist
  in
  Ssta.Block_ssta.run setup ~models:(Lazy.force retime_models)

(* the reply's analysis fields against the flat run, bit for bit *)
let retime_matches_flat payload (flat : Ssta.Block_ssta.t) =
  let num k = Option.bind (Jsonx.member k payload) Jsonx.as_num in
  let same k v =
    match num k with
    | Some x -> Int64.bits_of_float x = Int64.bits_of_float v
    | None -> false
  in
  same "worst_mean" (Ssta.Block_ssta.mean flat)
  && same "worst_sigma" (Ssta.Block_ssta.sigma flat)
  && same "basis_dim" (float_of_int flat.Ssta.Block_ssta.basis_dim)
  && same "endpoints" (float_of_int (Array.length flat.Ssta.Block_ssta.endpoint_forms))

let test_server_retime_end_to_end () =
  with_server @@ fun server ->
  let int_of payload k = Option.bind (Jsonx.member k payload) Jsonx.as_int in
  let num_of payload k = Option.bind (Jsonx.member k payload) Jsonx.as_num in
  let check_flat_counters label payload =
    Alcotest.(check (option int)) (label ^ " n_blocks") (Some 1) (int_of payload "n_blocks");
    Alcotest.(check (option int)) (label ^ " reused") (Some 0) (int_of payload "blocks_reused");
    Alcotest.(check (option int)) (label ^ " recomputed") (Some 1)
      (int_of payload "blocks_recomputed")
  in
  let base = expect_ok (sync_call server (retime_line ~id:1 ())) in
  check_flat_counters "unedited" base;
  let flat = flat_retime tiny_bench in
  Alcotest.(check bool) "unedited reply = flat run" true (retime_matches_flat base flat);
  (* one-gate edit (x = NAND -> NOR): the flat worst delay moves, and the
     reply moves with it to the edited design's flat run *)
  let edited = expect_ok (sync_call server (retime_line ~id:3 ~edit:(2, "nor2") ())) in
  check_flat_counters "edited" edited;
  let flat' =
    flat_retime ~edit:{ Hier.Edit.gate = 2; kind = Circuit.Gate.Nor2 } tiny_bench
  in
  Alcotest.(check bool) "the edit moves the flat worst mean" true
    (Ssta.Block_ssta.mean flat' <> Ssta.Block_ssta.mean flat);
  Alcotest.(check bool) "the edit moves the reply" true
    (num_of edited "worst_mean" <> num_of base "worst_mean");
  Alcotest.(check bool) "edited reply = flat run" true (retime_matches_flat edited flat');
  (* n_blocks is accepted and ignored *)
  let blocks =
    expect_ok
      (sync_call server
         (Printf.sprintf
            {|{"id":5,"method":"retime","params":{"circuit":{"bench":"%s"},"n_blocks":4}}|}
            (escape_bench tiny_bench)))
  in
  check_flat_counters "n_blocks 4" blocks;
  Alcotest.(check bool) "n_blocks 4 reply = flat run" true (retime_matches_flat blocks flat);
  (* edit validation surfaces as bad_params: inputs are not editable *)
  ignore
    (expect_error
       (sync_call server (retime_line ~id:4 ~edit:(0, "inv") ()))
       Protocol.Bad_params)

(* a served retime equals a flat Block_ssta.run of the same edited design,
   bit for bit, on generated netlists (up to 30 % DFFs) sent inline with a
   random same-arity kind swap, all through one server *)
let prop_retime_equals_flat server =
  let logic2 = Circuit.Gate.[ Nand2; Nor2; And2; Or2; Xor2; Xnor2 ] in
  let gen =
    QCheck.Gen.(
      map
        (fun ((seed, n_gates, n_inputs), (n_outputs, dff_pct, pick), edit) ->
          ( { Circuit.Generator.name = "prop"; n_gates; n_inputs; n_outputs;
              dff_fraction = float_of_int dff_pct /. 100.0; seed },
            pick, edit ))
        (triple
           (triple (int_bound 100_000) (int_range 6 60) (int_range 2 8))
           (triple (int_range 1 4) (int_bound 30) (int_bound 1_000_000))
           (frequency [ (1, return false); (7, return true) ])))
  in
  let print (spec, pick, edit) =
    Printf.sprintf "seed=%d gates=%d inputs=%d outputs=%d dff=%.2f pick=%d edit=%b"
      spec.Circuit.Generator.seed spec.n_gates spec.n_inputs spec.n_outputs
      spec.dff_fraction pick edit
  in
  QCheck.Test.make ~name:"served retime equals flat Block_ssta.run" ~count:200
    (QCheck.make ~print gen)
    (fun (spec, pick, with_edit) ->
      let text = Circuit.Bench_format.print (Circuit.Generator.generate spec) in
      (* gate ids as the server sees them: those of the parsed text *)
      let parsed = Result.get_ok (Circuit.Bench_format.parse ~name:"inline" text) in
      let logic =
        List.filter
          (fun (g : Circuit.Netlist.gate) ->
            match g.Circuit.Netlist.kind with
            | Circuit.Gate.Input | Circuit.Gate.Dff -> false
            | _ -> true)
          (Array.to_list parsed.Circuit.Netlist.gates)
      in
      let edit =
        match logic with
        | [] -> None
        | _ when not with_edit -> None
        | _ ->
            let g = List.nth logic (pick mod List.length logic) in
            let kinds =
              List.filter
                (fun k -> k <> g.Circuit.Netlist.kind)
                (if Circuit.Gate.arity g.Circuit.Netlist.kind = 1 then Circuit.Gate.[ Inv; Buf ]
                 else logic2)
            in
            let kind = List.nth kinds (pick / 7 mod List.length kinds) in
            Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind }
      in
      let edit_field =
        match edit with
        | None -> ""
        | Some e ->
            Printf.sprintf {|,"edit":{"gate":%d,"kind":"%s"}|} e.Hier.Edit.gate
              (Hier.Edit.kind_to_string e.Hier.Edit.kind)
      in
      let payload =
        expect_ok
          (sync_call server
             (Printf.sprintf {|{"id":1,"method":"retime","params":{"circuit":{"bench":"%s"}%s}}|}
                (escape_bench text) edit_field))
      in
      retime_matches_flat payload (flat_retime ?edit text))

let test_server_retime_equals_flat () =
  with_server @@ fun server ->
  QCheck.Test.check_exn ~rand:(Random.State.make [| 24 |]) (prop_retime_equals_flat server)

(* one design retimed 24 times with its parent state warm: twenty distinct
   edits, one of them repeated, and the unedited design in between. Every
   reply equals the flat run of its design bit for bit, the parent answers
   from memory, and the edits add no cache entry. *)
let test_server_retime_warm_stream () =
  with_server @@ fun server ->
  let netlist =
    Circuit.Generator.generate
      { Circuit.Generator.name = "stream"; n_gates = 60; n_inputs = 6; n_outputs = 4;
        dff_fraction = 0.15; seed = 5 }
  in
  let text = Circuit.Bench_format.print netlist in
  let parsed = Result.get_ok (Circuit.Bench_format.parse ~name:"inline" text) in
  let n_gates = Circuit.Netlist.size parsed in
  let swaps =
    List.filter_map
      (fun (g : Circuit.Netlist.gate) ->
        let swap kind = Some { Hier.Edit.gate = g.Circuit.Netlist.id; kind } in
        match g.Circuit.Netlist.kind with
        | Circuit.Gate.Inv -> swap Circuit.Gate.Buf
        | Circuit.Gate.Buf -> swap Circuit.Gate.Inv
        | Circuit.Gate.Input | Circuit.Gate.Dff -> None
        | Circuit.Gate.Xor2 -> swap Circuit.Gate.Nand2
        | _ -> swap Circuit.Gate.Xor2)
      (Array.to_list parsed.Circuit.Netlist.gates)
  in
  Alcotest.(check bool) "twenty distinct edits" true (List.length swaps >= 20);
  let distinct = List.filteri (fun i _ -> i < 20) swaps in
  let first = List.hd distinct in
  let stream =
    [ None ]
    @ List.map Option.some (List.filteri (fun i _ -> i < 10) distinct)
    @ [ None; Some first ]
    @ List.map Option.some (List.filteri (fun i _ -> i >= 10) distinct)
    @ [ None ]
  in
  let lru_entries () =
    let stats = expect_ok (sync_call server {|{"id":9,"method":"stats"}|}) in
    Option.bind (Option.bind (Jsonx.member "lru" stats) (Jsonx.member "entries")) Jsonx.as_int
  in
  let str payload k = Option.bind (Jsonx.member k payload) Jsonx.as_str in
  let int payload k = Option.bind (Jsonx.member k payload) Jsonx.as_int in
  let entries = ref None in
  List.iteri
    (fun i edit ->
      let edit_field =
        match edit with
        | None -> ""
        | Some e ->
            Printf.sprintf {|,"edit":{"gate":%d,"kind":"%s"}|} e.Hier.Edit.gate
              (Hier.Edit.kind_to_string e.Hier.Edit.kind)
      in
      let payload =
        expect_ok
          (sync_call server
             (Printf.sprintf {|{"id":%d,"method":"retime","params":{"circuit":{"bench":"%s"}%s}}|}
                (i + 1) (escape_bench text) edit_field))
      in
      let label = Printf.sprintf "request %d" i in
      Alcotest.(check bool) (label ^ " = flat run") true
        (retime_matches_flat payload (flat_retime ?edit text));
      (match (edit, int payload "gates_recomputed") with
      | None, Some n -> Alcotest.(check int) (label ^ " recomputes every gate") n_gates n
      | Some _, Some n ->
          Alcotest.(check bool) (label ^ " recomputes a cone") true (n > 0 && n <= n_gates)
      | _, None -> Alcotest.fail (label ^ " has no gates_recomputed"));
      if i = 0 then entries := lru_entries ()
      else begin
        Alcotest.(check (option string)) (label ^ " parent from memory") (Some "hit-mem")
          (str payload "cache_setup");
        Alcotest.(check (option int)) (label ^ " adds no cache entry") !entries (lru_entries ())
      end)
    stream

let test_server_overload_backpressure () =
  let config = { test_config with Server.workers = 1; Server.queue_capacity = 1 } in
  let server = Server.create config in
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] and expected = 6 in
  let reply r =
    Mutex.protect m (fun () ->
        replies := r :: !replies;
        Condition.signal c)
  in
  (* a burst: one request occupies the worker, one fits the queue, the rest
     must be rejected immediately with [overloaded] *)
  for i = 1 to expected do
    Server.submit server (run_mc_line ~id:i ~n:256 ()) ~reply
  done;
  Mutex.protect m (fun () ->
      while List.length !replies < expected do
        Condition.wait c m
      done);
  Server.drain server;
  let overloaded =
    List.length
      (List.filter
         (fun r ->
           match Option.bind (Jsonx.member "error" (reply_json r)) (Jsonx.member "code") with
           | Some (Jsonx.Str "overloaded") -> true
           | _ -> false)
         !replies)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some of the burst rejected (got %d)" overloaded)
    true (overloaded >= 1);
  Alcotest.(check bool) "but not all" true (overloaded < expected)

let test_server_deadline_exceeded () =
  (* the deadline clock is Util.Trace.now_ns, which reads the raw monotonic
     clock: deadlines must fire even though tracing is disabled here *)
  Alcotest.(check bool) "tracing is off" false (Util.Trace.enabled ());
  let config = { test_config with Server.workers = 1 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] in
  let reply r =
    Mutex.protect m (fun () ->
        replies := r :: !replies;
        Condition.signal c)
  in
  (* occupy the single worker, then submit a request whose deadline expires
     while it waits in the queue *)
  Server.submit server (run_mc_line ~id:1 ~n:512 ()) ~reply;
  Server.submit server {|{"id":2,"deadline_ms":0.001,"method":"stats"}|} ~reply;
  Mutex.protect m (fun () ->
      while List.length !replies < 2 do
        Condition.wait c m
      done);
  let deadline_reply =
    List.find
      (fun r -> Jsonx.member "id" (reply_json r) = Some (Jsonx.Num 2.0))
      !replies
  in
  ignore (expect_error deadline_reply Protocol.Deadline_exceeded);
  (* a deadline too far out for the nanosecond clock never expires: 1e300,
     and 1e999, which parses as infinity *)
  ignore (expect_ok (sync_call server {|{"id":3,"deadline_ms":1e300,"method":"stats"}|}));
  ignore (expect_ok (sync_call server {|{"id":4,"deadline_ms":1e999,"method":"stats"}|}))

let test_server_shutdown_drains () =
  let server = Server.create test_config in
  let ok = expect_ok (sync_call server {|{"id":1,"method":"shutdown"}|}) in
  Alcotest.(check (option bool)) "shutdown acknowledged" (Some true)
    (Option.bind (Jsonx.member "shutting_down" ok) Jsonx.as_bool);
  Alcotest.(check bool) "shutdown flagged" true (Server.shutdown_requested server);
  (* the worker closes intake just after delivering the shutdown reply; a
     request racing that window may still be accepted (and completes under
     drain semantics), but intake must close shortly after *)
  let rec await_closed tries =
    if tries = 0 then Alcotest.fail "intake never closed after shutdown"
    else
      let reply = sync_call server {|{"id":2,"method":"stats"}|} in
      match Option.bind (Jsonx.member "error" (reply_json reply)) (Jsonx.member "code") with
      | Some (Jsonx.Str code) ->
          Alcotest.(check string) "error code"
            (Protocol.error_code_name Protocol.Shutting_down) code
      | _ ->
          Thread.delay 0.01;
          await_closed (tries - 1)
  in
  await_closed 100;
  Server.drain server;
  (* drain is idempotent *)
  Server.drain server

let test_server_stats_payload () =
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  let stats = expect_ok (sync_call server {|{"id":5,"method":"stats"}|}) in
  let int_field f = Option.bind (Jsonx.member f stats) Jsonx.as_int in
  (match int_field "requests" with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "requests counter");
  Alcotest.(check (option int)) "no rejects" (Some 0) (int_field "rejected");
  Alcotest.(check bool) "lru stats present" true (Jsonx.member "lru" stats <> None);
  Alcotest.(check bool) "store absent without dir" true
    (match Jsonx.member "store" stats with Some Jsonx.Null | None -> true | _ -> false)

(* ---------- the disk store holds KLE models only ---------- *)

let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kle-test-store.%d.%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      try
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir
      with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let store_config dir = { test_config with Server.store_dir = Some dir }

let store_counter server name =
  let stats = expect_ok (sync_call server {|{"id":5,"method":"stats"}|}) in
  match Option.bind (Option.bind (Jsonx.member "store" stats) (Jsonx.member name)) Jsonx.as_int with
  | Some v -> v
  | None -> Alcotest.failf "stats carries no store.%s" name

let only_models_on_disk dir =
  Array.for_all
    (fun f -> String.starts_with ~prefix:"kle-model-" f && Filename.check_suffix f ".bin")
    (Sys.readdir dir)

(* retime edits rebuild setups in memory and touch the disk not at all:
   after the cold prepare's model write, the store neither writes nor grows *)
let test_server_store_keeps_models_only () =
  with_store_dir @@ fun dir ->
  with_server ~config:(store_config dir) @@ fun server ->
  ignore
    (expect_ok
       (sync_call server
          (Printf.sprintf {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}}}|}
             (escape_bench tiny_bench))));
  let writes = store_counter server "writes" and entries = store_counter server "entries" in
  Alcotest.(check int) "the cold prepare wrote its model only" 1 writes;
  List.iteri
    (fun i edit -> ignore (expect_ok (sync_call server (retime_line ~id:(10 + i) ~edit ()))))
    [ (2, "nor2"); (2, "and2"); (2, "or2"); (2, "xor2"); (2, "xnor2"); (3, "buf") ];
  Alcotest.(check int) "no store writes across edits" writes (store_counter server "writes");
  Alcotest.(check int) "no store growth across edits" entries (store_counter server "entries");
  Alcotest.(check bool) "every entry is a KLE model" true (only_models_on_disk dir)

(* a restarted server rebuilds the setup and loads the model from disk, and
   answers with the first server's bits *)
let test_server_warm_restart () =
  with_store_dir @@ fun dir ->
  let line = run_mc_line ~sampler:"kle" () in
  let run () = with_server ~config:(store_config dir) (fun s -> expect_ok (sync_call s line)) in
  let first = run () in
  let second = run () in
  let str payload k = Option.bind (Jsonx.member k payload) Jsonx.as_str in
  let num payload k = Option.bind (Jsonx.member k payload) Jsonx.as_num in
  Alcotest.(check (option string)) "cold models" (Some "miss") (str first "cache_models");
  Alcotest.(check (option string)) "setup rebuilt" (Some "miss") (str second "cache_setup");
  Alcotest.(check (option string)) "models from disk" (Some "hit-disk")
    (str second "cache_models");
  Alcotest.(check (option float_exact)) "worst_mean bits" (num first "worst_mean")
    (num second "worst_mean");
  Alcotest.(check (option float_exact)) "worst_sigma bits" (num first "worst_sigma")
    (num second "worst_sigma");
  Alcotest.(check bool) "every entry is a KLE model" true (only_models_on_disk dir)

(* single-flight: workers racing the same cold key must compute it once.
   Four concurrent prepares of one circuit leave exactly two misses in the
   stats (circuit setup + KLE model) — without deduplication each racer
   would pay its own eigensolve and the miss counter would exceed that. *)
let test_server_single_flight () =
  let config = { test_config with Server.workers = 4 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref [] and expected = 4 in
  let reply r =
    Mutex.protect m (fun () ->
        replies := r :: !replies;
        Condition.signal c)
  in
  let line =
    Printf.sprintf {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}}}|}
      (escape_bench tiny_bench)
  in
  for _ = 1 to expected do
    Server.submit server line ~reply
  done;
  Mutex.protect m (fun () ->
      while List.length !replies < expected do
        Condition.wait c m
      done);
  List.iter (fun r -> ignore (expect_ok r)) !replies;
  let stats = expect_ok (sync_call server {|{"id":2,"method":"stats"}|}) in
  Alcotest.(check (option int)) "one compute per key" (Some 2)
    (Option.bind (Jsonx.member "cache_misses" stats) Jsonx.as_int)

(* the prepare reply says how many eigenpairs its model solved: the pair
   ladder's first rung for the automatic truncation, computed_pairs for a
   fixed r *)
let test_server_prepare_reports_pairs () =
  let kle = { Ssta.Algorithm2.paper_config with Ssta.Algorithm2.max_area_fraction = 0.004 } in
  with_server ~config:{ test_config with Server.kle } @@ fun server ->
  let prepare r =
    expect_ok
      (sync_call server
         (Printf.sprintf {|{"id":1,"method":"prepare","params":{"circuit":{"bench":"%s"}%s}}|}
            (escape_bench tiny_bench) r))
  in
  let int_field payload name = Option.bind (Jsonx.member name payload) Jsonx.as_int in
  let auto = prepare "" in
  Alcotest.(check (option int)) "mesh_size" (Some 396) (int_field auto "mesh_size");
  Alcotest.(check (option int)) "ladder pairs" (Some 32) (int_field auto "pairs");
  Alcotest.(check bool) "r below the rung" true
    (match int_field auto "r" with Some r -> r < 32 | None -> false);
  let fixed = prepare {|,"r":5|} in
  Alcotest.(check (option int)) "fixed r" (Some 5) (int_field fixed "r");
  Alcotest.(check (option int)) "computed_pairs" (Some 200) (int_field fixed "pairs")

(* above 600 triangles the served model comes from the H-matrix eigensolve:
   it must be bit-identical to the uncached Algorithm2.prepare model, so a
   served run_mc equals the direct one. The served kle-qmc and cholesky
   samplers are pinned to fixed bits. *)
let test_server_model_matches_prepare () =
  let kle =
    {
      Ssta.Algorithm2.paper_config with
      Ssta.Algorithm2.max_area_fraction = 0.0015;
      computed_pairs = 12;
    }
  in
  let config = { test_config with Server.kle } in
  let served, served_qmc, served_cholesky =
    with_server ~config @@ fun server ->
    let run sampler = expect_ok (sync_call server (run_mc_line ~sampler ())) in
    let kle = run "kle" in
    let qmc = run "kle-qmc" in
    (kle, qmc, run "cholesky")
  in
  let field payload name =
    Printf.sprintf "%h" (Option.get (Option.bind (Jsonx.member name payload) Jsonx.as_num))
  in
  List.iter
    (fun (what, payload, mean, sigma) ->
      Alcotest.(check string) (what ^ " worst_mean") mean (field payload "worst_mean");
      Alcotest.(check string) (what ^ " worst_sigma") sigma (field payload "worst_sigma"))
    [
      ("kle-qmc", served_qmc, "0x1.c06a871cc3961p+9", "0x1.9bd606dfe8f39p+1");
      ("cholesky", served_cholesky, "0x1.c02be059d2866p+9", "0x1.258fc55459ef8p+2");
    ];
  let netlist =
    match Circuit.Bench_format.parse ~name:"inline" tiny_bench with
    | Ok nl -> nl
    | Error msg -> Alcotest.fail msg
  in
  let setup =
    Ssta.Experiment.setup_circuit ~placement_seed:config.Server.placement_seed netlist
  in
  let a2 =
    Ssta.Algorithm2.prepare ~config:kle ?jobs:config.Server.jobs
      (Ssta.Process.paper_default ()) setup.Ssta.Experiment.locations
  in
  Alcotest.(check bool) "H-matrix regime" true (Ssta.Algorithm2.mesh_size a2 > 600);
  let mc =
    Ssta.Experiment.run_mc ?jobs:config.Server.jobs setup
      ~sampler:(fun rng ~n -> Ssta.Algorithm2.sample_block a2 rng ~n)
      ~seed:3 ~n:32
  in
  List.iter
    (fun (field, direct) ->
      Alcotest.(check (option float_exact)) field (Some direct)
        (Option.bind (Jsonx.member field served) Jsonx.as_num))
    [
      ("worst_mean", mc.Ssta.Experiment.worst_mean);
      ("worst_sigma", mc.Ssta.Experiment.worst_sigma);
    ]

(* a reply that raises (client disconnected mid-write) must not take down
   the worker domain: with a single worker, the next request only gets an
   answer if that worker survived the failed write *)
let test_server_reply_failure_survives () =
  let config = { test_config with Server.workers = 1 } in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let fired = ref false in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Mutex.protect m (fun () ->
          fired := true;
          Condition.signal c);
      raise (Sys_error "Broken pipe"));
  Mutex.protect m (fun () ->
      while not !fired do
        Condition.wait c m
      done);
  let stats = expect_ok (sync_call server {|{"id":2,"method":"stats"}|}) in
  Alcotest.(check bool) "dropped reply recorded" true
    (Util.Diag.count ~code:`Degraded_fallback (Server.diagnostics server) >= 1);
  (* the drop is a first-class stat, not only a diagnostic *)
  match Option.bind (Jsonx.member "replies_dropped" stats) Jsonx.as_int with
  | Some n when n >= 1 -> ()
  | v ->
      Alcotest.failf "replies_dropped: %s"
        (match v with Some n -> string_of_int n | None -> "absent")

(* ---------- supervision, health, chaos ---------- *)

let test_server_health_payload () =
  with_server @@ fun server ->
  let h = expect_ok (sync_call server {|{"id":1,"method":"health"}|}) in
  let int_field f = Option.bind (Jsonx.member f h) Jsonx.as_int in
  Alcotest.(check (option bool)) "healthy" (Some true)
    (Option.bind (Jsonx.member "healthy" h) Jsonx.as_bool);
  Alcotest.(check (option bool)) "not draining" (Some false)
    (Option.bind (Jsonx.member "draining" h) Jsonx.as_bool);
  Alcotest.(check (option int)) "workers" (Some test_config.Server.workers)
    (int_field "workers");
  Alcotest.(check (option int)) "no restarts" (Some 0) (int_field "worker_restarts");
  Alcotest.(check (option int)) "no quarantine" (Some 0) (int_field "quarantined");
  Alcotest.(check (option int)) "queue empty" (Some 0) (int_field "queue_depth");
  (* the probe itself occupies one worker while it is being answered *)
  Alcotest.(check (option int)) "busy = this request" (Some 1) (int_field "workers_busy");
  Alcotest.(check (option string)) "no store configured" (Some "none")
    (Option.bind (Jsonx.member "store" h) Jsonx.as_str)

(* a crashed worker restarts and the in-flight request is retried once:
   the client still sees a plain ok *)
let test_server_worker_restart_retries () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash = Some (Util.Fault.io_plan ~limit:1 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  Alcotest.(check int) "one restart" 1 (Server.worker_restarts server);
  Alcotest.(check int) "no quarantine" 0 (Server.quarantined server);
  let h = expect_ok (sync_call server {|{"id":2,"method":"health"}|}) in
  Alcotest.(check (option int)) "health reports the restart" (Some 1)
    (Option.bind (Jsonx.member "worker_restarts" h) Jsonx.as_int)

(* a poison request that kills a second worker is quarantined with a typed
   internal_error instead of crash-looping the pool *)
let test_server_poison_quarantine () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash = Some (Util.Fault.io_plan ~period:1 ~limit:2 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  let msg = expect_error (sync_call server (run_mc_line ())) Protocol.Internal_error in
  Alcotest.(check bool) "names the quarantine" true (contains ~sub:"quarantined" msg);
  Alcotest.(check int) "one request quarantined" 1 (Server.quarantined server);
  Alcotest.(check int) "two restarts" 2 (Server.worker_restarts server);
  (* the pool survived: the next request is answered normally *)
  ignore (expect_ok (sync_call server {|{"id":3,"method":"stats"}|}))

(* a worker that crashes after replying re-runs the job on restart; the
   second reply must be suppressed, not written to the wire *)
let test_server_exactly_once_reply () =
  let config =
    {
      test_config with
      Server.workers = 1;
      chaos_crash_after = Some (Util.Fault.io_plan ~limit:1 Util.Fault.Crash);
    }
  in
  with_server ~config @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = ref 0 in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Mutex.protect m (fun () ->
          incr replies;
          Condition.signal c));
  Mutex.protect m (fun () ->
      while !replies < 1 do
        Condition.wait c m
      done);
  (* the retried job re-runs (FIFO) before this request is answered *)
  ignore (expect_ok (sync_call server {|{"id":2,"method":"stats"}|}));
  Thread.delay 0.05;
  Alcotest.(check int) "exactly one reply" 1 (Mutex.protect m (fun () -> !replies));
  let dups =
    List.filter
      (fun e ->
        e.Util.Diag.stage = "serve.reply" && contains ~sub:"duplicate" e.Util.Diag.detail)
      (Util.Diag.events (Server.diagnostics server))
  in
  Alcotest.(check bool) "duplicate-reply diagnostic recorded" true (dups <> [])

(* satellite: a bounded drain against a wedged worker warns and detaches
   instead of hanging; a later drain re-waits the same joiner and wins *)
let test_server_drain_timeout () =
  let config = { test_config with Server.workers = 1 } in
  let server = Server.create config in
  let started = Atomic.make false and release = Atomic.make false in
  Server.submit server {|{"id":1,"method":"stats"}|} ~reply:(fun _ ->
      Atomic.set started true;
      while not (Atomic.get release) do
        Thread.delay 0.005
      done);
  while not (Atomic.get started) do
    Thread.delay 0.002
  done;
  Server.drain ~timeout_s:0.05 server;
  let timed_out =
    List.exists
      (fun e -> e.Util.Diag.stage = "serve.drain")
      (Util.Diag.events (Server.diagnostics server))
  in
  Alcotest.(check bool) "drain-timeout diagnostic" true timed_out;
  Atomic.set release true;
  Server.drain server

(* ---------- jsonx escaping (satellite) ---------- *)

(* control characters must leave the writer escaped (named or \uXXXX) and
   parse back byte-identically; bytes >= 0x20 — including raw UTF-8 and
   arbitrary high bytes — pass through unescaped and round-trip *)
let test_jsonx_control_and_bytes () =
  let ctl = String.init 0x20 Char.chr in
  let out = Jsonx.to_string (Jsonx.Str ctl) in
  Alcotest.(check bool) "no raw control byte in the output" true
    (String.for_all (fun ch -> Char.code ch >= 0x20) out);
  Alcotest.(check bool) "uses \\u escapes" true (contains ~sub:{|\u0000|} out);
  Alcotest.(check (option string)) "control chars roundtrip" (Some ctl)
    (Jsonx.as_str (parse_ok out));
  List.iter
    (fun s ->
      let printed = Jsonx.to_string (Jsonx.Str s) in
      Alcotest.(check bool) ("raw passthrough: " ^ String.escaped s) true
        (contains ~sub:s printed);
      Alcotest.(check (option string)) ("roundtrip: " ^ String.escaped s) (Some s)
        (Jsonx.as_str (parse_ok printed)))
    [ "\xe2\x82\xac euro"; "caf\xc3\xa9"; "\xf0\x9d\x84\x9e"; "raw \xff\x80 bytes" ]

(* ---------- message properties ---------- *)

module G = QCheck.Gen

let gen_text = G.string_size (G.int_range 1 24)

(* a small JSON tree without NaN (JSON has none): request ids are echoed
   verbatim, whatever their shape *)
let gen_jsonx =
  G.sized_size (G.int_bound 3)
  @@ G.fix (fun self depth ->
         let leaf =
           G.oneof
             [
               G.pure Jsonx.Null;
               G.map (fun b -> Jsonx.Bool b) G.bool;
               G.map (fun i -> Jsonx.Num (float_of_int i)) G.small_signed_int;
               G.map (fun f -> Jsonx.Num f) (G.float_range (-1e6) 1e6);
               G.map (fun s -> Jsonx.Str s) G.string_small;
             ]
         in
         if depth = 0 then leaf
         else
           G.frequency
             [
               (3, leaf);
               (1, G.map (fun l -> Jsonx.List l) (G.list_size (G.int_bound 3) (self (depth - 1))));
               ( 1,
                 G.map
                   (fun kv -> Jsonx.Obj kv)
                   (G.list_size (G.int_bound 3) (G.pair G.string_small (self (depth - 1)))) );
             ])

(* every method, every optional field present or absent, seeds at the
   range edges and inline bench text *)
let gen_request st =
  let pos = G.int_range 1 100_000 in
  let circuit st =
    if G.bool st then Protocol.Named (gen_text st)
    else
      Protocol.Bench_text
        (G.oneof [ G.pure tiny_bench; G.string_size (G.int_range 1 200) ] st)
  in
  let seed = G.oneof [ G.int_range (-two53) two53; G.oneofl [ two53; -two53; two53 - 1; 0 ] ] in
  let call =
    match G.int_bound 8 st with
    | 0 -> Protocol.Prepare { circuit = circuit st; r = G.opt pos st }
    | 1 ->
        Protocol.Run_mc
          {
            circuit = circuit st;
            sampler = G.oneofl Protocol.[ Cholesky; Kle; Kle_qmc ] st;
            r = G.opt pos st;
            seed = seed st;
            n = pos st;
            batch = G.opt pos st;
            full = G.bool st;
          }
    | 2 -> Protocol.Compare { circuit = circuit st; r = G.opt pos st; seed = seed st; n = pos st }
    | 3 ->
        Protocol.Retime
          {
            circuit = circuit st;
            r = G.opt pos st;
            n_blocks = G.opt pos st;
            edit =
              G.opt
                (G.map2 (fun gate kind -> { Protocol.gate; kind }) (G.int_bound 100_000) gen_text)
                st;
          }
    | 4 -> Protocol.Stats
    | 5 -> Protocol.Metrics
    | 6 -> Protocol.Debug
    | 7 -> Protocol.Health
    | _ -> Protocol.Shutdown
  in
  {
    Protocol.id = gen_jsonx st;
    req_id = G.opt gen_text st;
    deadline_ms = G.opt (G.float_range 1e-3 1e6) st;
    call;
  }

(* the reply to a request: an ok payload with a packed float vector, or
   any typed error *)
let gen_result =
  G.oneof
    [
      G.map2
        (fun v extra ->
          Ok
            (Jsonx.Obj
               [ ("endpoint_mean", Jsonx.List (List.map (fun f -> Jsonx.Num f) v)); ("x", extra) ]))
        (G.list_size (G.int_range 1 16) (G.float_range (-1e3) 1e3))
        gen_jsonx;
      G.map3
        (fun code message field -> Error (code, message, field))
        (G.oneofl all_error_codes) G.string_small (G.opt gen_text);
    ]

(* the tree comes back out of its JSON line *)
let carried tree = Jsonx.parse (Jsonx.to_string tree) = Ok tree

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request roundtrip" ~count:300
    (QCheck.make
       ~print:(fun request -> Jsonx.to_string (Protocol.encode_request request))
       gen_request)
    (fun request ->
      let tree = Protocol.encode_request request in
      carried tree && Protocol.decode_request tree = Ok request)

let response_of (id, req_id, result) =
  match result with
  | Ok payload -> Protocol.ok_response ~id ?req_id payload
  | Error (code, message, field) -> Protocol.error_response ~id ?req_id ?field code message

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response roundtrip" ~count:300
    (QCheck.make
       ~print:(fun reply -> Jsonx.to_string (response_of reply))
       (G.triple gen_jsonx (G.opt gen_text) gen_result))
    (fun ((id, req_id, result) as reply) ->
      let response = response_of reply in
      carried response
      && Protocol.decode_response response
         = Ok (id, req_id, Result.map_error (fun (code, message, _) -> (code, message)) result))

let test_wire_request_adversarial () =
  let answer line =
    match Protocol.request_of_message (Jsonx.parse line) with
    | Ok _ -> Alcotest.fail "malformed request accepted"
    | Error reply -> reply
  in
  let check what expected line =
    Alcotest.(check (option string)) what
      (Some (Protocol.error_code_name expected))
      (error_member "code" (answer line))
  in
  let request call = { Protocol.id = Jsonx.Num 1.0; req_id = None; deadline_ms = None; call } in
  let stats = json_line (request Protocol.Stats) in
  (* a line that is not exactly one JSON value is a parse error, and no id
     can be recovered from it *)
  List.iter
    (fun (what, line) ->
      check what Protocol.Parse_error line;
      Alcotest.(check bool) (what ^ ": id null") true
        (Jsonx.member "id" (answer line) = Some Jsonx.Null))
    [
      ("truncated line", String.sub stats 0 (String.length stats - 1));
      ("trailing bytes", stats ^ "zz");
      ("stray byte", "\xee");
      ("empty line", "");
    ];
  check "not a request object" Protocol.Invalid_request
    (Jsonx.to_string (Jsonx.List [ Jsonx.Num 1.0 ]));
  check "unknown method" Protocol.Unknown_method
    (Jsonx.to_string (Jsonx.Obj [ ("id", Jsonx.Num 1.0); ("method", Jsonx.Str "warp") ]));
  check "n = 0 rejected" Protocol.Bad_params
    (json_line
       (request
          (Protocol.Run_mc
             { circuit = Protocol.Named "c17"; sampler = Protocol.Kle; r = None; seed = 0;
               n = 0; batch = None; full = false })))

(* requests that fail fast once decoded (no circuit resolves, none shuts
   the server down), so a mutant that still decodes costs one typed
   netlist error, not an analysis *)
let mutation_bases =
  let request ?req_id ?deadline_ms id call = { Protocol.id; req_id; deadline_ms; call } in
  List.map Protocol.encode_request
    [
      request ~req_id:"adv-1" (Jsonx.Num 1.0) Protocol.Stats;
      request ~deadline_ms:5000.0 (Jsonx.Str "h") Protocol.Health;
      request ~req_id:"adv-3" (Jsonx.Num 3.0)
        (Protocol.Run_mc
           { circuit = Protocol.Named "no-such-circuit"; sampler = Protocol.Kle; r = Some 4;
             seed = 7; n = 16; batch = None; full = true });
      request (Jsonx.Num 4.0)
        (Protocol.Compare
           { circuit = Protocol.Named "no-such-circuit"; r = None; seed = -3; n = 8 });
      request ~req_id:"adv-5" (Jsonx.Num 5.0)
        (Protocol.Retime
           { circuit = Protocol.Bench_text "what is this line\n"; r = None; n_blocks = Some 2;
             edit = Some { Protocol.gate = 1; kind = "inv" } });
    ]

(* random bytes, or a truncation or single-bit flip of a valid request
   line *)
let gen_mutant =
  let base = G.int_bound (List.length mutation_bases - 1) in
  G.oneof
    [
      G.map (fun s -> `Raw s) (G.string_size (G.int_bound 48));
      G.map2 (fun b k -> `Truncate (b, k)) base G.nat;
      G.map3 (fun b pos bit -> `Flip (b, pos, bit)) base G.nat (G.int_bound 7);
    ]

let mutate = function
  | `Raw s -> s
  | `Truncate (b, k) ->
      let s = Jsonx.to_string (List.nth mutation_bases b) in
      String.sub s 0 (k mod String.length s)
  | `Flip (b, pos, bit) ->
      let s = Bytes.of_string (Jsonx.to_string (List.nth mutation_bases b)) in
      let i = pos mod Bytes.length s in
      Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl bit)));
      Bytes.to_string s

let print_mutant = function
  | `Raw s -> Printf.sprintf "raw %S" s
  | `Truncate (b, k) -> Printf.sprintf "truncate base %d at %d" b k
  | `Flip (b, pos, bit) -> Printf.sprintf "flip base %d byte %d bit %d" b pos bit

(* every submission draws exactly one well-formed reply — a typed error or
   an ok — and no exception escapes [submit] *)
let test_wire_adversarial_submissions () =
  let server = Server.create test_config in
  let counters = ref [] in
  let submit line =
    let count = Atomic.make 0 and first = Atomic.make None in
    counters := count :: !counters;
    Server.submit server line ~reply:(fun r ->
        if Atomic.fetch_and_add count 1 = 0 then Atomic.set first (Some r));
    let rec wait tries =
      match Atomic.get first with
      | Some r -> r
      | None when tries = 0 -> Alcotest.failf "no reply to %S" line
      | None ->
          Thread.delay 0.002;
          wait (tries - 1)
    in
    let reply = reply_json (wait 15_000) in
    match Protocol.decode_response reply with
    | Ok (_, _, Ok _) -> true
    | Ok (_, _, Error _) ->
        Option.bind (error_member "code" reply) Protocol.error_code_of_name <> None
    | Error _ -> false
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 16 |])
    (QCheck.Test.make ~name:"adversarial submissions" ~count:250
       (QCheck.make ~print:print_mutant gen_mutant)
       (fun mutant -> submit (mutate mutant)));
  Server.drain server;
  Alcotest.(check int) "submissions" 250 (List.length !counters);
  Alcotest.(check (list int)) "exactly one reply each"
    (List.map (fun _ -> 1) !counters)
    (List.map Atomic.get !counters)

(* ---------- run_mc helpers ---------- *)

let mc_request ?(id = 1.0) ?req_id ?(seed = 3) ?(n = 24) ?(full = false) () =
  {
    Protocol.id = Jsonx.Num id;
    req_id;
    deadline_ms = None;
    call =
      Protocol.Run_mc
        { circuit = Protocol.Bench_text tiny_bench; sampler = Protocol.Kle; r = None;
          seed; n; batch = None; full };
  }

(* the statistics of an mc payload as IEEE-754 bit patterns (cache-tier and
   timing fields vary run to run; the numbers must not) *)
let mc_stat_bits payload =
  let bits name =
    Option.map Int64.bits_of_float (Option.bind (Jsonx.member name payload) Jsonx.as_num)
  in
  let vec name =
    match Jsonx.member name payload with
    | Some (Jsonx.List l) ->
        List.map (function Jsonx.Num v -> Int64.bits_of_float v | _ -> Int64.minus_one) l
    | _ -> []
  in
  (bits "worst_mean", bits "worst_sigma", vec "endpoint_mean", vec "endpoint_sigma")

(* concurrent same-key run_mc on a cold default server: both workers race
   on one model key (single-flight), yet every reply must carry exactly the
   bits of its sequential run *)
let test_server_concurrent_same_key_identity () =
  let seeds = [ 11; 12; 13; 14 ] in
  let request seed = mc_request ~id:(float_of_int seed) ~seed ~full:true () in
  let reference =
    with_server @@ fun plain ->
    List.map
      (fun s ->
        mc_stat_bits (expect_ok (sync_call plain (json_line (request s)))))
      seeds
  in
  with_server @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let replies = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      Server.submit server (json_line (request seed)) ~reply:(fun line ->
          Mutex.protect m (fun () ->
              Hashtbl.replace replies seed line;
              Condition.signal c)))
    seeds;
  Mutex.protect m (fun () ->
      while Hashtbl.length replies < List.length seeds do
        Condition.wait c m
      done);
  let got = List.map (fun s -> mc_stat_bits (expect_ok (Hashtbl.find replies s))) seeds in
  Alcotest.(check bool) "concurrent results bit-identical to sequential" true
    (got = reference)

(* the acceptance bar: a fault storm (worker crashes, read errors, torn
   writes, latency; >= 50 injected) completes with zero wrong results,
   every failure typed, and the server back to healthy *)
let test_server_chaos_invariants () =
  let cfg =
    {
      Serve.Chaos.default_config with
      Serve.Chaos.requests = 60;
      mc_samples = 8;
      crash_period = 10;
      crash_limit = 4;
      read_error_period = 4;
      short_read_period = 6;
      torn_write_period = 2;
      latency_period = 2;
      latency_ms = 0.05;
    }
  in
  let report = with_store_dir (fun store_dir -> Serve.Chaos.run ~store_dir cfg) in
  Alcotest.(check bool)
    (Printf.sprintf "fault floor (got %d)" report.Serve.Chaos.faults_injected)
    true
    (report.Serve.Chaos.faults_injected >= 50);
  Alcotest.(check bool) "workers were crashed" true
    (report.Serve.Chaos.worker_restarts >= 1);
  (* every reply — including retried ones — carried the
     originating request's correlation ID exactly once *)
  Alcotest.(check int) "req_id violations" 0 report.Serve.Chaos.id_violations;
  (match Serve.Chaos.violations ~min_faults:50 report with
  | [] -> ()
  | v ->
      Alcotest.failf "chaos violations: %s (report: %s)" (String.concat "; " v)
        (Serve.Chaos.report_to_string report))

(* ---------- telemetry: req_id propagation, metrics, debug ---------- *)

let count_substring ~needle hay =
  let n = String.length needle in
  let rec scan from acc =
    match String.index_from_opt hay from needle.[0] with
    | None -> acc
    | Some i ->
        if i + n <= String.length hay && String.sub hay i n = needle then
          scan (i + 1) (acc + 1)
        else scan (i + 1) acc
  in
  if n = 0 then 0 else scan 0 0

(* recording happens after the reply is written, so a test that asserts on
   telemetry right after a reply must wait for the record to land *)
let await ?(tries = 500) what pred =
  let rec go n =
    if pred () then ()
    else if n = 0 then Alcotest.failf "%s never became true" what
    else begin
      Thread.delay 0.005;
      go (n - 1)
    end
  in
  go tries

let test_server_req_id_echo_json () =
  with_server @@ fun server ->
  let reply = sync_call server {|{"id":1,"req_id":"cli-aa-1","method":"stats"}|} in
  Alcotest.(check int) "echoed exactly once" 1
    (count_substring ~needle:{|"req_id"|} reply);
  Alcotest.(check (option string)) "echoed verbatim" (Some "cli-aa-1")
    (Option.bind (Jsonx.member "req_id" (reply_json reply)) Jsonx.as_str);
  (* no req_id in, none out: server-minted IDs are telemetry-only *)
  let reply = sync_call server {|{"id":2,"method":"stats"}|} in
  Alcotest.(check int) "no echo without req_id" 0
    (count_substring ~needle:{|"req_id"|} reply);
  (* error replies echo too *)
  let reply = sync_call server {|{"id":3,"req_id":"cli-aa-3","method":"warp"}|} in
  Alcotest.(check (option string)) "echo on error" (Some "cli-aa-3")
    (Option.bind (Jsonx.member "req_id" (reply_json reply)) Jsonx.as_str)

let test_client_generates_req_id () =
  with_server @@ fun server ->
  let sent = ref [] in
  let transport line ~reply =
    sent := line :: !sent;
    Server.submit server line ~reply
  in
  let client = Serve.Client.create transport in
  (match Serve.Client.call_request client (mc_request ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "call failed: %s" (Serve.Client.failure_to_string e));
  match !sent with
  | [ line ] -> (
      match
        Option.bind (Result.to_option (Jsonx.parse line)) (fun v ->
            Option.bind (Jsonx.member "req_id" v) Jsonx.as_str)
      with
      | Some rid ->
          Alcotest.(check bool)
            (Printf.sprintf "generated id %S has the cli- prefix" rid)
            true
            (String.length rid > 4 && String.sub rid 0 4 = "cli-")
      | None -> Alcotest.fail "client sent no req_id")
  | lines -> Alcotest.failf "expected one transport send, saw %d" (List.length lines)

let test_server_metrics_method () =
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server (run_mc_line ())));
  await "first request recorded" (fun () ->
      Util.Histogram.count (Serve.Telemetry.total_histogram (Server.telemetry server)) >= 1);
  let mp = expect_ok (sync_call server {|{"id":2,"method":"metrics"}|}) in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (Jsonx.member field mp <> None))
    [ "counters"; "stages"; "histograms"; "prometheus" ];
  (match
     Option.bind (Option.bind (Jsonx.member "counters" mp) (Jsonx.member "requests"))
       Jsonx.as_int
   with
  | Some n when n >= 1 -> ()
  | _ -> Alcotest.fail "requests counter missing or zero");
  let total = Option.bind (Jsonx.member "stages" mp) (Jsonx.member "total") in
  let q name =
    match Option.bind (Option.bind total (Jsonx.member name)) Jsonx.as_num with
    | Some v -> v
    | None -> Alcotest.failf "stages.total.%s missing" name
  in
  Alcotest.(check bool) "total count >= 1" true (q "count" >= 1.0);
  Alcotest.(check bool) "p50 <= p99" true (q "p50_ms" <= q "p99_ms");
  Alcotest.(check bool) "p99 <= p999" true (q "p99_ms" <= q "p999_ms");
  let prom =
    match Option.bind (Jsonx.member "prometheus" mp) Jsonx.as_str with
    | Some s -> s
    | None -> Alcotest.fail "prometheus text missing"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("prometheus has " ^ needle) true (contains ~sub:needle prom))
    [
      "ssta_requests"; "ssta_cache_misses";
      {|ssta_stage_latency_seconds{stage="queue_wait"|};
      {|ssta_stage_latency_seconds{stage="compute"|};
      {|ssta_stage_latency_seconds_count{stage="total"}|};
    ]

let test_server_debug_ring () =
  (* slow_ms = 0 admits every request, so the ring holds the most recent *)
  with_server @@ fun server ->
  ignore (expect_ok (sync_call server {|{"id":1,"req_id":"cli-dd-1","method":"stats"}|}));
  await "ring admission" (fun () ->
      match
        Option.bind
          (Jsonx.member "slow_requests"
             (expect_ok (sync_call server {|{"id":2,"method":"debug"}|})))
          (function Jsonx.List l -> Some l | _ -> None)
      with
      | Some (_ :: _) -> true
      | _ -> false);
  let dp = expect_ok (sync_call server {|{"id":3,"method":"debug"}|}) in
  let entries =
    match Jsonx.member "slow_requests" dp with
    | Some (Jsonx.List l) -> l
    | _ -> Alcotest.fail "slow_requests missing"
  in
  let has_dd1 =
    List.exists
      (fun e ->
        Option.bind (Jsonx.member "req_id" e) Jsonx.as_str = Some "cli-dd-1"
        && Option.bind (Jsonx.member "stages_ms" e) (Jsonx.member "compute") <> None
        && Option.bind (Jsonx.member "stages_ms" e) (Jsonx.member "queue_wait") <> None)
      entries
  in
  Alcotest.(check bool) "entry carries req_id + per-stage breakdown" true has_dd1

let test_server_json_request_log () =
  let lock = Mutex.create () in
  let logs = ref [] in
  let config =
    {
      test_config with
      Server.request_log = Some (fun j -> Mutex.protect lock (fun () -> logs := j :: !logs));
    }
  in
  with_server ~config @@ fun server ->
  ignore (expect_ok (sync_call server {|{"id":1,"req_id":"cli-log-1","method":"stats"}|}));
  await "log line emitted" (fun () ->
      Mutex.protect lock (fun () ->
          List.exists
            (fun j ->
              Option.bind (Jsonx.member "req_id" j) Jsonx.as_str = Some "cli-log-1"
              && Jsonx.member "total_ms" j <> None
              && Option.bind (Jsonx.member "ok" j) Jsonx.as_bool = Some true)
            !logs))

let test_server_batch_wait_recorded () =
  with_server @@ fun server ->
  let m = Mutex.create () and c = Condition.create () in
  let got = ref 0 in
  let request seed = mc_request ~id:(float_of_int seed) ~seed () in
  List.iter
    (fun seed ->
      Server.submit server (json_line (request seed)) ~reply:(fun line ->
          ignore (expect_ok line);
          Mutex.protect m (fun () ->
              incr got;
              Condition.signal c)))
    [ 21; 22; 23; 24 ];
  Mutex.protect m (fun () ->
      while !got < 4 do
        Condition.wait c m
      done);
  let h = Serve.Telemetry.stage_histogram (Server.telemetry server) Serve.Telemetry.Batch_wait in
  await "batch_wait recorded for every request" (fun () -> Util.Histogram.count h >= 4);
  Alcotest.(check int) "recorded once per executed request" 4 (Util.Histogram.count h)

let () =
  Alcotest.run "serve"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "escapes" `Quick test_jsonx_escapes;
          Alcotest.test_case "numbers" `Quick test_jsonx_numbers;
          Alcotest.test_case "control chars + raw bytes" `Quick
            test_jsonx_control_and_bytes;
          Alcotest.test_case "errors" `Quick test_jsonx_errors;
          Alcotest.test_case "member" `Quick test_jsonx_member;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "decode ok" `Quick test_protocol_decode_ok;
          Alcotest.test_case "decode errors" `Quick test_protocol_decode_errors;
          Alcotest.test_case "responses" `Quick test_protocol_responses;
          Alcotest.test_case "unknown params key is typed" `Quick
            test_protocol_unknown_param_key;
          Alcotest.test_case "seed range" `Quick test_protocol_seed_range;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 16 |])
            prop_request_roundtrip;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick ~rand:(Random.State.make [| 17 |])
            prop_response_roundtrip;
          Alcotest.test_case "request adversarial" `Quick test_wire_request_adversarial;
          Alcotest.test_case "adversarial submissions" `Quick
            test_wire_adversarial_submissions;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "overwrite + remove" `Quick test_lru_overwrite_and_remove;
          Alcotest.test_case "recency sequence" `Quick test_lru_recency_sequence;
          Alcotest.test_case "matches reference model" `Quick
            test_lru_matches_reference_model;
        ] );
      ( "server",
        [
          Alcotest.test_case "run_mc ok" `Quick test_server_run_mc_ok;
          Alcotest.test_case "cache tiers" `Quick test_server_cache_tiers;
          Alcotest.test_case "typed errors" `Quick test_server_typed_errors;
          Alcotest.test_case "retime end-to-end" `Quick test_server_retime_end_to_end;
          Alcotest.test_case "retime equals flat (qcheck)" `Quick test_server_retime_equals_flat;
          Alcotest.test_case "bench errors are typed" `Quick
            test_server_bench_errors_are_typed;
          Alcotest.test_case "overload backpressure" `Quick test_server_overload_backpressure;
          Alcotest.test_case "deadline exceeded" `Quick test_server_deadline_exceeded;
          Alcotest.test_case "shutdown drains" `Quick test_server_shutdown_drains;
          Alcotest.test_case "stats payload" `Quick test_server_stats_payload;
          Alcotest.test_case "store keeps models only" `Quick test_server_store_keeps_models_only;
          Alcotest.test_case "warm restart loads models" `Quick test_server_warm_restart;
          Alcotest.test_case "single-flight dedup" `Quick test_server_single_flight;
          Alcotest.test_case "concurrent same-key identity" `Quick
            test_server_concurrent_same_key_identity;
          Alcotest.test_case "prepare reports pairs" `Quick test_server_prepare_reports_pairs;
          Alcotest.test_case "model matches Algorithm2.prepare" `Quick
            test_server_model_matches_prepare;
          Alcotest.test_case "reply failure survives" `Quick
            test_server_reply_failure_survives;
          Alcotest.test_case "retime warm stream" `Quick test_server_retime_warm_stream;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "req_id echo (json)" `Quick test_server_req_id_echo_json;
          Alcotest.test_case "client generates req_id" `Quick
            test_client_generates_req_id;
          Alcotest.test_case "metrics method" `Quick test_server_metrics_method;
          Alcotest.test_case "debug ring" `Quick test_server_debug_ring;
          Alcotest.test_case "json request log" `Quick test_server_json_request_log;
          Alcotest.test_case "batch_wait recorded" `Quick
            test_server_batch_wait_recorded;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health payload" `Quick test_server_health_payload;
          Alcotest.test_case "worker restart retries" `Quick
            test_server_worker_restart_retries;
          Alcotest.test_case "poison quarantine" `Quick test_server_poison_quarantine;
          Alcotest.test_case "exactly-once reply" `Quick test_server_exactly_once_reply;
          Alcotest.test_case "drain timeout" `Quick test_server_drain_timeout;
          Alcotest.test_case "chaos invariants" `Slow test_server_chaos_invariants;
        ] );
    ]
