module Digital = Discrete.Digital
module Model = Ta.Model

type timed_iut = {
  ti_reset : unit -> unit;
  ti_input : string -> unit;
  ti_tick : unit -> string option;
}

type verdict = T_pass of int | T_fail of { round : int; reason : string }

(* Channel emitted by an action move, if any. *)
let move_channel (mv : Ta.Zone_graph.move) =
  let rec scan = function
    | [] -> None
    | (_, (e : Model.edge)) :: rest -> (
        match e.Model.sync with
        | Model.Emit c -> Some c.Model.chan_name
        | Model.Receive _ | Model.Tau -> scan rest)
  in
  scan mv.Ta.Zone_graph.participants

type ctx = {
  graph : Digital.graph;
  observable : (string, unit) Hashtbl.t;
}

let make_ctx net ~inputs ~outputs =
  let graph = Digital.explore net in
  let observable = Hashtbl.create 8 in
  List.iter (fun a -> Hashtbl.replace observable a ()) (inputs @ outputs);
  { graph; observable }

(* State [id]'s edges as (kind, target id), in edge order. *)
let edges (g : Digital.graph) id =
  List.init (g.offsets.(id + 1) - g.offsets.(id)) (fun j ->
      let e = g.offsets.(id) + j in
      (g.kinds.(e), g.targets.(e)))

(* Close a set of state ids under unobservable (internal) actions. *)
let tau_closure ctx ids =
  let seen = Hashtbl.create 64 in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter
        (fun (kind, tid) ->
          match kind with
          | `Act mv ->
            let internal =
              match move_channel mv with
              | None -> true
              | Some c -> not (Hashtbl.mem ctx.observable c)
            in
            if internal then visit tid
          | `Delay -> ())
        (edges ctx.graph id)
    end
  in
  List.iter visit ids;
  List.sort_uniq compare (Hashtbl.fold (fun id () acc -> id :: acc) seen [])

let apply_channel ctx ids chan =
  let next =
    List.concat_map
      (fun id ->
        List.filter_map
          (fun (kind, tid) ->
            match kind with
            | `Act mv when move_channel mv = Some chan -> Some tid
            | `Act _ | `Delay -> None)
          (edges ctx.graph id))
      ids
  in
  tau_closure ctx next

let apply_delay ctx ids =
  let next =
    List.filter_map
      (fun id ->
        List.find_map
          (fun (kind, tid) ->
            match kind with `Delay -> Some tid | `Act _ -> None)
          (edges ctx.graph id))
      ids
  in
  tau_closure ctx next

let channel_enabled ctx id chan =
  List.exists
    (fun (kind, _) ->
      match kind with
      | `Act mv -> move_channel mv = Some chan
      | `Delay -> false)
    (edges ctx.graph id)

let test net ~inputs ~outputs ~rounds ~seed iut =
  ignore outputs;
  let ctx = make_ctx net ~inputs ~outputs in
  let rng = Random.State.make [| seed |] in
  iut.ti_reset ();
  let estimate = ref (tau_closure ctx [ 0 ]) in
  let verdict = ref None in
  let round = ref 0 in
  while !verdict = None && !round < rounds do
    incr round;
    (* Inputs the estimate uniformly allows (conservative injection). *)
    let injectable =
      List.filter
        (fun a -> List.for_all (fun id -> channel_enabled ctx id a) !estimate)
        inputs
    in
    let inject = injectable <> [] && Random.State.bool rng in
    if inject then begin
      let a = List.nth injectable (Random.State.int rng (List.length injectable)) in
      iut.ti_input a;
      estimate := apply_channel ctx !estimate a;
      if !estimate = [] then
        verdict :=
          Some (T_fail { round = !round; reason = "estimate lost after input " ^ a })
    end
    else begin
      match iut.ti_tick () with
      | Some o ->
        estimate := apply_channel ctx !estimate o;
        if !estimate = [] then
          verdict :=
            Some (T_fail { round = !round; reason = "unexpected output " ^ o })
      | None ->
        estimate := apply_delay ctx !estimate;
        if !estimate = [] then
          verdict :=
            Some
              (T_fail
                 { round = !round; reason = "silent past the spec's deadline" })
    end
  done;
  match !verdict with Some v -> v | None -> T_pass rounds

(* A conforming IUT: a random walk over the spec's own digital graph. *)
let spec_iut net ~outputs ~seed =
  let graph = Digital.explore net in
  let rng = Random.State.make [| seed |] in
  let state = ref 0 in
  let is_output c = List.mem c outputs in
  let pick xs =
    match xs with
    | [] -> None
    | _ -> Some (List.nth xs (Random.State.int rng (List.length xs)))
  in
  let acts id =
    List.filter_map
      (fun (kind, tid) ->
        match kind with
        | `Act mv -> Some (move_channel mv, tid)
        | `Delay -> None)
      (edges graph id)
  in
  let delay id =
    List.find_map
      (fun (kind, tid) ->
        match kind with `Delay -> Some tid | `Act _ -> None)
      (edges graph id)
  in
  {
    ti_reset = (fun () -> state := 0);
    ti_input =
      (fun a ->
        match
          pick (List.filter (fun (c, _) -> c = Some a) (acts !state))
        with
        | Some (_, dst) -> state := dst
        | None -> () (* input-enabled completion: ignore *));
    ti_tick =
      (fun () ->
        (* Sometimes emit an enabled output now; otherwise let time pass,
           firing forced actions when the invariant blocks delay. *)
        let outputs_now =
          List.filter
            (fun (c, _) -> match c with Some c -> is_output c | None -> false)
            (acts !state)
        in
        let emit_now = outputs_now <> [] && Random.State.int rng 3 = 0 in
        if emit_now then begin
          match pick outputs_now with
          | Some (Some c, dst) ->
            state := dst;
            Some c
          | Some (None, _) | None -> None
        end
        else begin
          match delay !state with
          | Some dst ->
            state := dst;
            None
          | None -> (
              (* Time cannot pass: a forced action fires. *)
              match pick (acts !state) with
              | Some (c, dst) ->
                state := dst;
                (match c with Some c when is_output c -> Some c | _ -> None)
              | None -> None)
        end);
  }

let mute_iut inner =
  {
    ti_reset = inner.ti_reset;
    ti_input = inner.ti_input;
    ti_tick =
      (fun () ->
        ignore (inner.ti_tick ());
        None);
  }

let noisy_iut inner ~wrong ~every =
  let count = ref 0 in
  {
    ti_reset =
      (fun () ->
        count := 0;
        inner.ti_reset ());
    ti_input = inner.ti_input;
    ti_tick =
      (fun () ->
        match inner.ti_tick () with
        | Some o ->
          incr count;
          if !count mod every = 0 then Some wrong else Some o
        | None -> None);
  }
