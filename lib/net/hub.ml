open Fl_sim

type 'm t = {
  engine : Engine.t;
  key : 'm -> string;
  on_malformed : (src:int -> bytes:int -> unit) option;
  boxes : (string, (int * 'm) Mailbox.t) Hashtbl.t;
  mutable malformed : int;
}

let box t k =
  match Hashtbl.find_opt t.boxes k with
  | Some b -> b
  | None ->
      let b = Mailbox.create t.engine in
      Hashtbl.add t.boxes k b;
      b

let create engine ~inbox ?on_malformed ~key () =
  let t =
    { engine; key; on_malformed; boxes = Hashtbl.create 64; malformed = 0 }
  in
  Fiber.spawn engine (fun () ->
      let rec loop () =
        let src, frame = Mailbox.recv inbox in
        (* The frame's decode is shared with the other receivers of the
           same transmission, but each hub judges it on its own: a
           malformed frame — bit flipped, truncated, or outright
           garbage — is dropped and counted here, and never reaches a
           protocol fiber. *)
        (match Net.Frame.msg frame with
        | Some msg -> Mailbox.send (box t (t.key msg)) (src, msg)
        | None ->
            t.malformed <- t.malformed + 1;
            (match t.on_malformed with
            | Some f ->
                f ~src ~bytes:(Fl_wire.Sparse.length (Net.Frame.piece frame))
            | None -> ()));
        loop ()
      in
      loop ());
  t

let remove t k = Hashtbl.remove t.boxes k
let channels t = Hashtbl.length t.boxes
let malformed t = t.malformed
