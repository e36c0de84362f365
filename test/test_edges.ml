(* Edge cases across the substrate modules: boundary lengths, empty
   inputs, restart/stop behaviours — the kind of corners long runs or
   Byzantine inputs eventually hit. *)

open Fl_sim

(* SHA-256 padding boundaries: messages whose length straddles the
   55/56/64-byte padding cut-offs exercise the two-block pad path. *)
let test_sha_padding_boundaries () =
  (* Reference values computed with python3 hashlib. *)
  let cases =
    [ (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
      (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
      (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
      (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
      (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
      (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0") ]
  in
  List.iter
    (fun (len, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "len %d" len)
        expected
        (Fl_crypto.Hex.encode (Fl_crypto.Sha256.digest (String.make len 'a'))))
    cases

let test_sha_feed_range_checks () =
  let ctx = Fl_crypto.Sha256.init () in
  Alcotest.check_raises "bad range" (Invalid_argument "Sha256.feed_bytes")
    (fun () -> Fl_crypto.Sha256.feed_bytes ctx ~off:2 ~len:10 (Bytes.create 4))

let test_engine_stop_mid_run () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.schedule e ~delay:1 (fun () ->
         incr fired;
         Engine.stop e));
  ignore (Engine.schedule e ~delay:2 (fun () -> incr fired));
  Engine.run e;
  Alcotest.(check int) "stopped after first" 1 !fired;
  Engine.run e;
  Alcotest.(check int) "resumable" 2 !fired

let test_engine_negative_delay_clamped () =
  let e = Engine.create () in
  let at = ref (-1) in
  ignore (Engine.schedule e ~delay:(-50) (fun () -> at := Engine.now e));
  Engine.run e;
  Alcotest.(check int) "clamped to now" 0 !at

let test_fiber_never_parks () =
  let e = Engine.create () in
  let reached = ref false in
  Fiber.spawn e (fun () ->
      let (_ : unit) = Fiber.never () in
      reached := true);
  Engine.run e;
  Alcotest.(check bool) "never resumes" false !reached;
  Alcotest.(check bool) "engine drains anyway" true (Engine.pending e = 0)

let test_mailbox_clear_and_try_recv () =
  let e = Engine.create () in
  let mb = Mailbox.create e in
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  Alcotest.(check (option int)) "try_recv" (Some 1) (Mailbox.try_recv mb);
  Mailbox.clear mb;
  Alcotest.(check (option int)) "cleared" None (Mailbox.try_recv mb)

let test_cpu_zero_charge () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:1 in
  let done_ = ref false in
  Fiber.spawn e (fun () ->
      Cpu.charge cpu 0;
      Cpu.charge cpu (-5);
      done_ := true);
  Engine.run e;
  Alcotest.(check bool) "zero/negative charges are free" true !done_;
  Alcotest.(check int) "no busy time" 0 (Cpu.busy_time cpu)

let test_cpu_utilization_bounds () =
  let e = Engine.create () in
  let cpu = Cpu.create e ~cores:2 in
  Fiber.spawn e (fun () -> Cpu.charge cpu 100);
  Engine.run e;
  let u = Cpu.utilization cpu ~now:(Engine.now e) in
  Alcotest.(check (float 0.001)) "one of two cores busy" 0.5 u

let test_net_self_send_skips_nic () =
  let w =
    World.make ~n:2
      ~key:(fun _ -> "m")
      ~encode:Fun.id
      ~decode:(fun s -> Some s)
      ()
  in
  (* the frame is a real megabyte of bytes — its length is the NIC
     charge a wire transmission would pay *)
  Fl_net.Net.send w.World.net ~src:0 ~dst:0 (String.make 1_000_000 's');
  World.run w;
  Alcotest.(check int) "self-send bypasses NIC" 0
    (Fl_net.Nic.bytes_sent w.World.nics.(0));
  Alcotest.(check int) "still delivered" 1
    (Fl_net.Net.messages_delivered w.World.net)

let test_hub_channel_gc () =
  let w =
    World.make ~n:2
      ~key:(fun m -> m)
      ~encode:Fun.id
      ~decode:(fun s -> Some s)
      ()
  in
  let hub = World.hub w 1 in
  Fl_net.Net.send w.World.net ~src:0 ~dst:1 "chan-a";
  Fl_net.Net.send w.World.net ~src:0 ~dst:1 "chan-b";
  World.run w;
  Alcotest.(check int) "two channels" 2 (Fl_net.Hub.channels hub);
  Fl_net.Hub.remove hub "chan-a";
  Alcotest.(check int) "one removed" 1 (Fl_net.Hub.channels hub);
  (* A late message recreates the channel rather than crashing. *)
  Fl_net.Net.send w.World.net ~src:0 ~dst:1 "chan-a";
  World.run w;
  Alcotest.(check int) "recreated" 2 (Fl_net.Hub.channels hub)

let test_codec_empty_and_bounds () =
  let open Fl_wire in
  let w = Codec.Writer.create () in
  Codec.Writer.bytes w "";
  Codec.Writer.u8 w 0;
  Codec.Writer.u8 w 255;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  Alcotest.(check string) "empty bytes" "" (Codec.Reader.bytes r);
  Alcotest.(check int) "u8 min" 0 (Codec.Reader.u8 r);
  Alcotest.(check int) "u8 max" 255 (Codec.Reader.u8 r);
  Alcotest.check_raises "negative varint"
    (Invalid_argument "Codec.varint: negative") (fun () ->
      Codec.Writer.varint w (-1))

let test_mempool_take_more_than_available () =
  let pool = Fl_chain.Mempool.create () in
  ignore (Fl_chain.Mempool.submit pool (Fl_chain.Tx.create ~id:1 ~size:1));
  let batch = Fl_chain.Mempool.take_batch pool ~max:100 in
  Alcotest.(check int) "partial batch" 1 (Array.length batch);
  Alcotest.(check int) "empty batch from empty pool" 0
    (Array.length (Fl_chain.Mempool.take_batch pool ~max:100))

let test_store_empty_properties () =
  let store = Fl_chain.Store.create () in
  Alcotest.(check int) "empty length" 0 (Fl_chain.Store.length store);
  Alcotest.(check string) "genesis tip" Fl_chain.Block.genesis_hash
    (Fl_chain.Store.last_hash store);
  Alcotest.(check bool) "no block" true (Fl_chain.Store.get store 0 = None);
  Alcotest.(check bool) "no last" true (Fl_chain.Store.last store = None);
  Alcotest.(check bool) "vacuous integrity" true
    (Fl_chain.Store.check_integrity store);
  Alcotest.(check bool) "empty sub" true (Fl_chain.Store.sub store ~from:0 = [])

let test_config_validation () =
  let base = Fl_fireledger.Config.default ~n:4 in
  let expect_invalid name config =
    match Fl_fireledger.Config.validate config with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  Fl_fireledger.Config.validate base;
  expect_invalid "bad f" { base with Fl_fireledger.Config.f = 2 };
  expect_invalid "zero batch" { base with Fl_fireledger.Config.batch_size = 0 };
  expect_invalid "tiny gc window" { base with Fl_fireledger.Config.gc_window = 1 };
  expect_invalid "zero fanout"
    { base with Fl_fireledger.Config.dissemination = Fl_fireledger.Config.Gossip 0 };
  expect_invalid "zero pipeline"
    { base with Fl_fireledger.Config.pipeline_depth = 0 }

let test_signature_registry_bounds () =
  Alcotest.check_raises "empty registry"
    (Invalid_argument "Signature.create_registry: n must be positive")
    (fun () ->
      ignore (Fl_crypto.Signature.create_registry ~seed:"x" ~n:0));
  let reg = Fl_crypto.Signature.create_registry ~seed:"x" ~n:2 in
  Alcotest.check_raises "signer out of range"
    (Invalid_argument "Signature: unknown identity") (fun () ->
      ignore (Fl_crypto.Signature.sign reg ~signer:2 "m"))

let test_latency_models_sane () =
  let rng = Rng.create 3 in
  let check name model lo hi =
    for _ = 1 to 100 do
      let d = Fl_net.Latency.sample model rng ~src:0 ~dst:1 in
      if d < lo || d > hi then
        Alcotest.failf "%s out of band: %d" name d
    done
  in
  check "constant" (Fl_net.Latency.Constant (Time.ms 5)) (Time.ms 5) (Time.ms 5);
  check "uniform"
    (Fl_net.Latency.Uniform { lo = Time.us 10; hi = Time.us 20 })
    (Time.us 10) (Time.us 20);
  check "lognormal tails" Fl_net.Latency.single_dc (Time.us 20) (Time.ms 10)

let suite =
  [ Alcotest.test_case "sha padding boundaries" `Quick
      test_sha_padding_boundaries;
    Alcotest.test_case "sha feed ranges" `Quick test_sha_feed_range_checks;
    Alcotest.test_case "engine stop" `Quick test_engine_stop_mid_run;
    Alcotest.test_case "engine negative delay" `Quick
      test_engine_negative_delay_clamped;
    Alcotest.test_case "fiber never" `Quick test_fiber_never_parks;
    Alcotest.test_case "mailbox clear/try" `Quick test_mailbox_clear_and_try_recv;
    Alcotest.test_case "cpu zero charge" `Quick test_cpu_zero_charge;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization_bounds;
    Alcotest.test_case "net self-send" `Quick test_net_self_send_skips_nic;
    Alcotest.test_case "hub channel gc" `Quick test_hub_channel_gc;
    Alcotest.test_case "codec bounds" `Quick test_codec_empty_and_bounds;
    Alcotest.test_case "mempool partial batch" `Quick
      test_mempool_take_more_than_available;
    Alcotest.test_case "store empty" `Quick test_store_empty_properties;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "signature bounds" `Quick test_signature_registry_bounds;
    Alcotest.test_case "latency models" `Quick test_latency_models_sane ]
