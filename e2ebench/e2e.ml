(* End-to-end benchmark of incdbd.

     e2e.exe run --incdbd EXE --workload W --seed S --seconds T --trace 0|1
                 [--out DIR]
     e2e.exe gen --workload W --seed S [--rounds K]
     e2e.exe compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
     e2e.exe smoke --incdbd EXE --validator EXE [--bounds BENCHMARK.json]

   [run] measures one workload against the real server binary and ends
   stdout with a one-line JSON report (see README.md).  [gen] prints
   the exact request stream of a run's warm-up and first K rounds with
   the expected answers.
   [compare] judges two sets of results against the bounds in
   BENCHMARK.json.  [smoke] is the @bench-e2e-smoke check. *)

let usage () =
  prerr_endline
    "usage: e2e.exe run --incdbd EXE --workload W --seed S --seconds T --trace 0|1\n\
    \       e2e.exe gen --workload W --seed S [--rounds K]\n\
    \       e2e.exe compare A.jsonl B.jsonl [--bounds FILE]\n\
    \       e2e.exe smoke --incdbd EXE --validator EXE [--bounds FILE]";
  exit 2

(* "--key value" pairs and bare arguments. *)
let parse_args args =
  let rec go flags bare = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), v) :: flags) bare rest
    | [ key ] when String.length key > 2 && String.sub key 0 2 = "--" -> usage ()
    | a :: rest -> go flags (a :: bare) rest
    | [] -> (List.rev flags, List.rev bare)
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let int_flag flags name =
  Option.map
    (fun v -> match int_of_string_opt v with Some i -> i | None -> usage ())
    (flag flags name)

let required flags name = match flag flags name with Some v -> v | None -> usage ()

let workload flags =
  let w = required flags "workload" in
  if not (List.mem w Gen.names) then begin
    Printf.eprintf "unknown workload %s (one of %s)\n" w (String.concat ", " Gen.names);
    exit 2
  end;
  w

let run flags =
  let o =
    {
      Runs.incdbd = required flags "incdbd";
      out = Option.value ~default:".e2ebench" (flag flags "out");
      workload = workload flags;
      seed = Option.value ~default:1 (int_flag flags "seed");
      seconds = Option.value ~default:15 (int_flag flags "seconds");
      trace =
        (match flag flags "trace" with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some _ -> usage ());
      requests = None;
      setups = 5;
    }
  in
  if not (Sys.file_exists o.incdbd) then begin
    Printf.eprintf "e2e: no incdbd binary at %s\n" o.incdbd;
    exit 2
  end;
  if not (Sys.file_exists o.out) then Unix.mkdir o.out 0o755;
  let correct, _, _ = Runs.run o in
  exit (if correct then 0 else 1)

let gen flags =
  let w = Gen.make (workload flags) ~seed:(Option.value ~default:1 (int_flag flags "seed")) in
  Gen.dump stdout w ~rounds:(Option.value ~default:1 (int_flag flags "rounds"));
  Printf.eprintf "stream digest %s\n" (Gen.digest w)

let compare_cmd args =
  let flags, files = parse_args args in
  match files with
  | [ a; b ] -> (
    let bounds = Option.value ~default:"BENCHMARK.json" (flag flags "bounds") in
    match Verdict.compare_logs ~bounds a b with
    | regressed -> exit (if regressed then 1 else 0)
    | exception Failure msg ->
      prerr_endline ("e2e compare: " ^ msg);
      exit 2)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run (fst (parse_args rest))
  | "gen" :: rest -> gen (fst (parse_args rest))
  | "compare" :: rest -> compare_cmd rest
  | "smoke" :: rest ->
    let flags = fst (parse_args rest) in
    Smoke.run ~incdbd:(required flags "incdbd") ~validator:(required flags "validator")
      ~bounds:(Option.value ~default:"BENCHMARK.json" (flag flags "bounds"))
  | _ -> usage ()
