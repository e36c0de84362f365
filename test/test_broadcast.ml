open Fl_sim
open Fl_net
open Fl_broadcast
open Fl_wire

(* ---------- Bracha RB ---------- *)

type rb_msg = string Bracha.msg

let rb_key : rb_msg -> string = fun _ -> "rb"

let rb_encode (m : rb_msg) =
  Envelope.seal ~tag:0 (fun w -> Bracha.write_msg Codec.Writer.bytes w m)

let rb_decode s =
  Msg_codec.decode_frame
    (fun tag r ->
      if tag <> 0 then
        raise (Codec.Malformed (Printf.sprintf "rb-test: tag %d" tag));
      Bracha.read_msg Codec.Reader.bytes r)
    s

let setup_rb ?(seed = 21) ~n ~alive () =
  let w =
    World.make ~seed ~n ~key:rb_key ~encode:rb_encode ~decode:rb_decode ()
  in
  let delivered = Array.make n [] in
  let services =
    Array.init n (fun i ->
        if List.mem i alive then
          Some
            (Bracha.create w.World.engine ~recorder:w.World.recorder
               ~channel:(World.channel w ~node:i ~key:"rb")
               ~payload_digest:Fl_crypto.Sha256.digest
               ~deliver:(fun ~origin ~tag payload ->
                 delivered.(i) <- (origin, tag, payload) :: delivered.(i)))
        else None)
  in
  (w, services, delivered)

let test_rb_basic () =
  let n = 4 in
  let alive = [ 0; 1; 2; 3 ] in
  let w, services, delivered = setup_rb ~n ~alive () in
  (match services.(2) with
  | Some s -> Bracha.broadcast s ~tag:7 "proof"
  | None -> assert false);
  World.run ~until:(Time.s 5) w;
  List.iter
    (fun i ->
      Alcotest.(check (list (triple int int string)))
        (Printf.sprintf "delivered at %d" i)
        [ (2, 7, "proof") ]
        delivered.(i))
    alive

let test_rb_with_silent_node () =
  let n = 4 in
  let alive = [ 0; 1; 3 ] in
  let w, services, delivered = setup_rb ~n ~alive () in
  (match services.(0) with
  | Some s -> Bracha.broadcast s ~tag:1 "m"
  | None -> assert false);
  World.run ~until:(Time.s 5) w;
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "delivered at %d" i)
        1
        (List.length delivered.(i)))
    alive

let test_rb_equivocating_origin () =
  (* A Byzantine origin sends payload "A" to half the cluster and "B"
     to the other half, bypassing the service API. RB-Agreement: no
     two correct nodes may deliver different payloads. *)
  let n = 4 in
  let alive = [ 1; 2; 3 ] in
  let w, _, delivered = setup_rb ~n ~alive () in
  let send dst payload =
    Net.send w.World.net ~src:0 ~dst
      (rb_encode (Bracha.Send { origin = 0; tag = 0; payload } : rb_msg))
  in
  send 1 "A";
  send 2 "A";
  send 3 "B";
  World.run ~until:(Time.s 5) w;
  let all = List.concat_map (fun i -> delivered.(i)) alive in
  let payloads =
    List.sort_uniq compare (List.map (fun (_, _, p) -> p) all)
  in
  Alcotest.(check bool) "at most one payload delivered" true
    (List.length payloads <= 1);
  (* 2f+1 echoes for "A" exist (nodes 1,2 echo A; node 3 echoes B):
     neither value can gather 2f+1=3 echoes, so nothing delivers. *)
  Alcotest.(check int) "equivocation blocks delivery" 0 (List.length all)

let test_rb_multiple_instances () =
  let n = 4 in
  let alive = [ 0; 1; 2; 3 ] in
  let w, services, delivered = setup_rb ~n ~alive () in
  (match services.(0), services.(1) with
  | Some s0, Some s1 ->
      Bracha.broadcast s0 ~tag:0 "one";
      Bracha.broadcast s0 ~tag:1 "two";
      Bracha.broadcast s1 ~tag:0 "three"
  | _ -> assert false);
  World.run ~until:(Time.s 5) w;
  List.iter
    (fun i ->
      let got = List.sort compare delivered.(i) in
      Alcotest.(check (list (triple int int string)))
        (Printf.sprintf "all instances at %d" i)
        [ (0, 0, "one"); (0, 1, "two"); (1, 0, "three") ]
        got)
    alive

let suite =
  [ Alcotest.test_case "rb basic" `Quick test_rb_basic;
    Alcotest.test_case "rb silent node" `Quick test_rb_with_silent_node;
    Alcotest.test_case "rb equivocation" `Quick test_rb_equivocating_origin;
    Alcotest.test_case "rb multi instance" `Quick test_rb_multiple_instances ]
