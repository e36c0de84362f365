type ('k, 'v) t = ('k, (int, 'v) Hashtbl.t) Hashtbl.t

let create size = Hashtbl.create size

let add t key ~src v =
  let senders =
    match Hashtbl.find_opt t key with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.add t key s;
        s
  in
  if Hashtbl.mem senders src then false
  else begin
    Hashtbl.add senders src v;
    true
  end

let count t key =
  match Hashtbl.find_opt t key with
  | Some s -> Hashtbl.length s
  | None -> 0

let fold t key f acc =
  match Hashtbl.find_opt t key with
  | Some s -> Hashtbl.fold f s acc
  | None -> acc
