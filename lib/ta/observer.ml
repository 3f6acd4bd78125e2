(* Adding the observer clock at the highest index leaves every existing
   clock reference valid; no edge resets it, so it tracks global time.
   Its max-constant entry is 0 — the property's own constant is merged in
   by the checker (Prop.merge_constants). No component mentions it, so
   it is [Global]: it keeps that bound at every location. *)

let add_global_clock (net : Model.network) =
  let fresh = net.Model.n_clocks + 1 in
  ( {
      net with
      Model.n_clocks = fresh;
      clock_names = Array.append net.Model.clock_names [| "t_obs" |];
      max_consts = Array.append net.Model.max_consts [| 0 |];
      scopes = Array.append net.Model.scopes [| Model.Global |];
    },
    fresh )

let possibly_within net f ~bound =
  let net', t = add_global_clock net in
  Checker.check net' (Prop.Possibly (Prop.And (f, Prop.Clock (Model.clock_le t bound))))

let invariant_until net f ~bound =
  let net', t = add_global_clock net in
  Checker.check net'
    (Prop.Invariant (Prop.Or (Prop.Clock (Model.clock_gt t bound), f)))
