open Fl_sim
open Fl_net

module Sparse = Fl_wire.Sparse

let str = Sparse.of_string
let bytes_of frame = Sparse.to_string (Net.Frame.piece frame)
let int_encode i = str (string_of_int i)
let int_decode p = int_of_string_opt (Sparse.to_string p)

(* Raw-frame worlds: the "codec" is the identity on strings, so tests
   can reason in bytes — the NIC charge IS the string length. *)
let make_world ?latency n =
  World.make ?latency ~n
    ~key:(fun _ -> "main")
    ~encode:str
    ~decode:(fun p -> Some (Sparse.to_string p))
    ()

(* Int-message worlds: a tiny decimal codec, so hub routing over a
   typed message space is exercised end to end. *)
let make_int_world ~key n =
  World.make ~n ~key ~encode:int_encode ~decode:int_decode ()

(* Counting worlds: the codec's decode bumps [calls], so tests can
   count how many times the network parsed a frame. *)
let make_counting_world ~key ~encode ~decode n =
  let calls = ref 0 in
  let decode s =
    incr calls;
    decode s
  in
  (World.make ~n ~key ~encode ~decode (), calls)

(* Start every node's hub and collect what reaches channel [key]. *)
let collect w ~key =
  Array.init w.World.n (fun i ->
      let got = ref [] in
      let box = Hub.box (World.hub w i) key in
      Fiber.spawn w.World.engine (fun () ->
          let rec loop () =
            let _, m = Mailbox.recv box in
            got := m :: !got;
            loop ()
          in
          loop ());
      got)

let test_delivery () =
  let w = make_world 3 in
  let got = ref [] in
  Fiber.spawn w.World.engine (fun () ->
      let src, frame = Mailbox.recv (Net.inbox w.World.net 1) in
      got := (src, bytes_of frame) :: !got);
  Net.send w.World.net ~src:0 ~dst:1 (str "hi");
  World.run w;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hi") ] !got

let test_broadcast_reaches_all () =
  let w = make_world 4 in
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    Fiber.spawn w.World.engine (fun () ->
        let _ = Mailbox.recv (Net.inbox w.World.net i) in
        counts.(i) <- counts.(i) + 1)
  done;
  Net.broadcast w.World.net ~src:2 (str "blast");
  World.run w;
  Alcotest.(check (list int)) "everyone incl. self" [ 1; 1; 1; 1 ]
    (Array.to_list counts)

let test_nic_serialization () =
  (* At 10 Gb/s, 1.25 MB takes 1 ms to serialize; two back-to-back
     sends from the same node must queue behind each other. The frame
     is an actual 1.25 MB string — its length is the NIC charge. *)
  let w = make_world ~latency:(Latency.Constant (Time.us 100)) 2 in
  let arrivals = ref [] in
  Fiber.spawn w.World.engine (fun () ->
      let rec loop k =
        if k > 0 then begin
          let _ = Mailbox.recv (Net.inbox w.World.net 1) in
          arrivals := Engine.now w.World.engine :: !arrivals;
          loop (k - 1)
        end
      in
      loop 2);
  let mb = String.make 1_250_000 'x' in
  Net.send w.World.net ~src:0 ~dst:1 (str mb);
  Net.send w.World.net ~src:0 ~dst:1 (str mb);
  World.run w;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
      (* tx 1ms + rx 1ms + 100us propagation. *)
      Alcotest.(check bool) "first ~2.1ms" true
        (t1 > Time.ms 2 && t1 < Time.us 2200);
      Alcotest.(check bool) "second queued ~1ms later" true
        (t2 - t1 >= Time.us 900)
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_filter_drops () =
  let w = make_world 3 in
  Net.set_filter w.World.net (Some (fun ~src ~dst -> not (src = 0 && dst = 1)));
  let got1 = ref 0 and got2 = ref 0 in
  Fiber.spawn w.World.engine (fun () ->
      let _ = Mailbox.recv (Net.inbox w.World.net 1) in
      incr got1);
  Fiber.spawn w.World.engine (fun () ->
      let _ = Mailbox.recv (Net.inbox w.World.net 2) in
      incr got2);
  Net.send w.World.net ~src:0 ~dst:1 (str "x");
  Net.send w.World.net ~src:0 ~dst:2 (str "y");
  World.run w;
  Alcotest.(check int) "dropped" 0 !got1;
  Alcotest.(check int) "passed" 1 !got2;
  Alcotest.(check int) "drop counter" 1 (Net.messages_dropped w.World.net)

let test_hub_routing () =
  let w =
    make_int_world ~key:(fun m -> if m < 10 then "low" else "high") 2
  in
  let lows = ref [] and highs = ref [] in
  Fiber.spawn w.World.engine (fun () ->
      let rec loop () =
        let _, m = Mailbox.recv (Hub.box (World.hub w 1) "low") in
        lows := m :: !lows;
        loop ()
      in
      loop ());
  Fiber.spawn w.World.engine (fun () ->
      let rec loop () =
        let _, m = Mailbox.recv (Hub.box (World.hub w 1) "high") in
        highs := m :: !highs;
        loop ()
      in
      loop ());
  List.iter
    (fun m -> Net.send w.World.net ~src:0 ~dst:1 (str (string_of_int m)))
    [ 3; 12; 5; 40 ];
  World.run w;
  Alcotest.(check (list int)) "low channel" [ 3; 5 ] (List.rev !lows);
  Alcotest.(check (list int)) "high channel" [ 12; 40 ] (List.rev !highs)

let test_hub_buffers_future () =
  (* Messages for a channel nobody reads yet are buffered, not lost. *)
  let w = make_int_world ~key:(fun _ -> "later") 2 in
  Net.send w.World.net ~src:0 ~dst:1 (str "99");
  World.run w;
  let got = ref None in
  Fiber.spawn w.World.engine (fun () ->
      let _, m = Mailbox.recv (Hub.box (World.hub w 1) "later") in
      got := Some m);
  World.run w;
  Alcotest.(check (option int)) "buffered message" (Some 99) !got

let test_hub_drops_malformed () =
  (* Frames the codec rejects are counted and dropped; valid frames
     around them still flow. *)
  let w = make_int_world ~key:(fun _ -> "main") 2 in
  let got = ref [] in
  Fiber.spawn w.World.engine (fun () ->
      let rec loop () =
        let _, m = Mailbox.recv (Hub.box (World.hub w 1) "main") in
        got := m :: !got;
        loop ()
      in
      loop ());
  Net.send w.World.net ~src:0 ~dst:1 (str "7");
  Net.send w.World.net ~src:0 ~dst:1 (str "not-a-number");
  Net.send w.World.net ~src:0 ~dst:1 (str "8");
  World.run w;
  Alcotest.(check (list int)) "valid frames delivered" [ 7; 8 ]
    (List.rev !got);
  Alcotest.(check int) "malformed counted" 1 (Hub.malformed (World.hub w 1))

let test_corruption_window () =
  (* With corruption probability 1.0 on node 0's outbound frames,
     every wire frame is mutated; the identity codec accepts mutants,
     so observe the mutation through the counters and the payload. *)
  let w = make_world 2 in
  Net.set_corrupt w.World.net ~node:0 1.0;
  let got = ref [] in
  Fiber.spawn w.World.engine (fun () ->
      let rec loop k =
        if k > 0 then begin
          let _, frame = Mailbox.recv (Net.inbox w.World.net 1) in
          got := bytes_of frame :: !got;
          loop (k - 1)
        end
      in
      loop 3);
  let payload = String.make 64 'p' in
  for _ = 1 to 3 do
    Net.send w.World.net ~src:0 ~dst:1 (str payload)
  done;
  World.run w;
  Alcotest.(check int) "all frames mutated" 3
    (Net.messages_corrupted w.World.net);
  Alcotest.(check int) "still delivered" 3 (List.length !got);
  List.iter
    (fun m -> Alcotest.(check bool) "frame differs" true (m <> payload))
    !got;
  (* closing the window restores clean delivery *)
  Net.set_corrupt w.World.net ~node:0 0.0;
  let clean = ref None in
  Fiber.spawn w.World.engine (fun () ->
      let _, frame = Mailbox.recv (Net.inbox w.World.net 1) in
      clean := Some (bytes_of frame));
  Net.send w.World.net ~src:0 ~dst:1 (str payload);
  World.run w;
  Alcotest.(check (option string)) "window closed" (Some payload) !clean

let test_corruption_self_exempt () =
  let w = make_world 2 in
  Net.set_corrupt w.World.net ~node:0 1.0;
  let got = ref None in
  Fiber.spawn w.World.engine (fun () ->
      let _, frame = Mailbox.recv (Net.inbox w.World.net 0) in
      got := Some (bytes_of frame));
  Net.send w.World.net ~src:0 ~dst:0 (str "loopback");
  World.run w;
  Alcotest.(check (option string)) "self-delivery intact" (Some "loopback")
    !got;
  Alcotest.(check int) "no corruption" 0 (Net.messages_corrupted w.World.net)

let test_latency_matrix () =
  let base = [| [| 0; Time.ms 80 |]; [| Time.ms 80; 0 |] |] in
  let w = make_world ~latency:(Latency.Matrix { base; jitter = 0.0 }) 2 in
  let at = ref 0 in
  Fiber.spawn w.World.engine (fun () ->
      let _ = Mailbox.recv (Net.inbox w.World.net 1) in
      at := Engine.now w.World.engine);
  Net.send w.World.net ~src:0 ~dst:1 (str (String.make 100 'g'));
  World.run w;
  Alcotest.(check bool) "~80ms one-way" true
    (!at >= Time.ms 80 && !at < Time.us 80_200)

let test_byte_accounting () =
  let w = make_world 3 in
  Net.broadcast w.World.net ~src:0 (str (String.make 500 'b'));
  World.run w;
  Alcotest.(check int) "tx bytes: 2 peers (self skips NIC)" 1000
    (Nic.bytes_sent w.World.nics.(0));
  Alcotest.(check int) "peer rx" 500 (Nic.bytes_received w.World.nics.(1));
  Alcotest.(check int) "link counter" 500
    (Net.link_bytes w.World.net ~src:0 ~dst:1);
  Alcotest.(check int) "bytes_out sums links (incl. loopback)" 1500
    (Net.bytes_out w.World.net ~node:0)

let test_broadcast_decodes_once () =
  (* One broadcast is one frame: its decode runs at the first receiver
     and every other receiver reads the same result. *)
  let w, calls =
    make_counting_world ~key:(fun _ -> "main") ~encode:int_encode
      ~decode:int_decode 4
  in
  let got = collect w ~key:"main" in
  Net.broadcast w.World.net ~src:2 (str "42");
  World.run w;
  Alcotest.(check int) "one decode for four receivers" 1 !calls;
  Array.iteri
    (fun i g ->
      Alcotest.(check (list int)) (Printf.sprintf "node %d" i) [ 42 ] !g)
    got

let test_corrupt_links_decode_apart () =
  (* Every wire copy of node 0's broadcast is corrupted; each mutant is
     a fresh frame, decoded on its own and rejected by the envelope
     CRC at its receiver, while node 0's self-delivery of the same
     broadcast arrives intact. *)
  let module Msg = Fl_fireledger.Msg in
  let w, calls =
    make_counting_world ~key:Msg.key ~encode:Msg.encode ~decode:Msg.decode 4
  in
  let got = collect w ~key:(Msg.key (Msg.Req { round = 0 })) in
  Net.set_corrupt w.World.net ~node:0 1.0;
  Net.broadcast w.World.net ~src:0 (Msg.encode (Msg.Req { round = 5 }));
  World.run w;
  Alcotest.(check int) "three link copies corrupted" 3
    (Net.messages_corrupted w.World.net);
  Alcotest.(check int) "intact frame + three mutants decoded" 4 !calls;
  Alcotest.(check bool) "self-delivery intact" true
    (match !(got.(0)) with [ Msg.Req { round = 5 } ] -> true | _ -> false);
  Alcotest.(check int) "sender's hub saw nothing malformed" 0
    (Hub.malformed (World.hub w 0));
  for i = 1 to 3 do
    Alcotest.(check int) (Printf.sprintf "node %d malformed" i) 1
      (Hub.malformed (World.hub w i));
    Alcotest.(check int) (Printf.sprintf "node %d delivered" i) 0
      (List.length !(got.(i)))
  done

let test_garbage_counted_per_hub () =
  (* A garbage frame broadcast once is decoded once, yet every hub that
     receives it counts it: per-receiver decode-error counters keep
     their meaning. *)
  let w, calls =
    make_counting_world ~key:(fun _ -> "main") ~encode:int_encode
      ~decode:int_decode 4
  in
  let got = collect w ~key:"main" in
  Net.broadcast w.World.net ~src:1 (str "not-a-number");
  World.run w;
  Alcotest.(check int) "decoded once" 1 !calls;
  for i = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "node %d malformed" i) 1
      (Hub.malformed (World.hub w i));
    Alcotest.(check int) (Printf.sprintf "node %d delivered" i) 0
      (List.length !(got.(i)))
  done

let suite =
  [ Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "broadcast" `Quick test_broadcast_reaches_all;
    Alcotest.test_case "nic serialization" `Quick test_nic_serialization;
    Alcotest.test_case "filter drops" `Quick test_filter_drops;
    Alcotest.test_case "hub routing" `Quick test_hub_routing;
    Alcotest.test_case "hub buffers future channels" `Quick
      test_hub_buffers_future;
    Alcotest.test_case "hub drops malformed" `Quick test_hub_drops_malformed;
    Alcotest.test_case "broadcast decodes once" `Quick
      test_broadcast_decodes_once;
    Alcotest.test_case "corrupted link copies decode apart" `Quick
      test_corrupt_links_decode_apart;
    Alcotest.test_case "garbage counted by every hub" `Quick
      test_garbage_counted_per_hub;
    Alcotest.test_case "corruption window" `Quick test_corruption_window;
    Alcotest.test_case "corruption exempts self" `Quick
      test_corruption_self_exempt;
    Alcotest.test_case "latency matrix" `Quick test_latency_matrix;
    Alcotest.test_case "byte accounting" `Quick test_byte_accounting ]
