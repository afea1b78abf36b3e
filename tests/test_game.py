"""Tests for the game substrate: state, engine, protocol, server/client guests, cheats."""

import math

import pytest

from repro.game.cheats.catalog import CHEAT_CATALOG, catalog_summary
from repro.game.cheats.implementations import (
    AimbotCheat,
    SpeedHackCheat,
    UnlimitedAmmoCheat,
    WallhackCheat,
    implemented_cheats,
)
from repro.game.client import ClientSettings, GameClientGuest
from repro.game.engine import GameEngine
from repro.game.images import make_client_image, make_server_image
from repro.game.protocol import (
    commands_packet,
    decode_packet,
    encode_packet,
    join_packet,
    parse_keyboard_command,
    snapshot_packet,
)
from repro.game.server import GameServerGuest
from repro.game.state import DEFAULT_WEAPON, GameMap, GameState, PlayerState, Wall
from repro.errors import GuestError
from repro.vm.events import KeyboardInput, PacketDelivery, TimerInterrupt
from repro.vm.machine import FixedNondeterminismSource, VirtualMachine
from repro.vm.image import VMImage


class TestState:
    def test_player_roundtrip(self):
        player = PlayerState(player_id="p1", x=3.0, y=4.0, ammo=7, kills=2)
        assert PlayerState.from_dict(player.to_dict()) == player

    def test_map_roundtrip(self):
        game_map = GameMap.default_arena()
        assert GameMap.from_dict(game_map.to_dict()) == game_map

    def test_game_state_roundtrip(self):
        state = GameState()
        state.add_player("a")
        state.add_player("b")
        restored = GameState.from_dict(state.to_dict())
        assert restored.to_dict() == state.to_dict()

    def test_add_player_idempotent(self):
        state = GameState()
        first = state.add_player("a")
        assert state.add_player("a") is first

    def test_spawn_points_cycle(self):
        game_map = GameMap()
        assert game_map.spawn_for(0) == game_map.spawn_for(len(game_map.spawn_points))

    def test_clamp(self):
        game_map = GameMap(width=100, height=100)
        assert game_map.clamp(-5, 250) == (0.0, 100.0)

    def test_wall_contains(self):
        wall = Wall(0, 0, 10, 10)
        assert wall.contains(5, 5)
        assert not wall.contains(11, 5)


def _angle(source, target) -> float:
    """The facing angle from one player's position to another's."""
    return math.atan2(target.y - source.y, target.x - source.x) % (2.0 * math.pi)


class TestEngine:
    def make_engine(self):
        state = GameState(game_map=GameMap(walls=(Wall(40, 0, 60, 100),)))
        engine = GameEngine(state)
        a = engine.join("a")
        b = engine.join("b")
        a.x, a.y = 10.0, 50.0
        b.x, b.y = 90.0, 50.0
        return engine, a, b

    def test_move_normalises_direction(self):
        engine, a, _ = self.make_engine()
        x0 = a.x
        engine.move("a", 2.0, 0.0)
        assert a.x == pytest.approx(x0 + 5.0)

    def test_move_blocked_by_wall(self):
        engine, a, _ = self.make_engine()
        a.x = 38.0
        engine.move("a", 1.0, 0.0)
        assert a.x == 38.0  # would land inside the wall

    def test_move_dead_player_ignored(self):
        engine, a, _ = self.make_engine()
        a.alive = False
        assert engine.move("a", 1.0, 0.0) == (a.x, a.y)

    def test_shoot_requires_ammo(self):
        engine, a, b = self.make_engine()
        a.ammo = 0
        result = engine.shoot("a")
        assert result.out_of_ammo and result.hit is None

    def test_shot_blocked_by_wall(self):
        engine, a, b = self.make_engine()
        engine.aim("a", _angle(a, b))
        result = engine.shoot("a")
        assert result.blocked_by_wall and result.hit is None

    def test_shot_hits_without_wall(self):
        state = GameState(game_map=GameMap(walls=()))
        engine = GameEngine(state)
        a, b = engine.join("a"), engine.join("b")
        a.x, a.y, b.x, b.y = 10.0, 50.0, 200.0, 50.0
        engine.aim("a", _angle(a, b))
        result = engine.shoot("a")
        assert result.hit == "b"
        assert b.health == 100 - DEFAULT_WEAPON.damage
        assert a.ammo == DEFAULT_WEAPON.magazine - 1

    def test_kill_and_respawn(self):
        state = GameState(game_map=GameMap(walls=()))
        engine = GameEngine(state)
        a, b = engine.join("a"), engine.join("b")
        a.x, a.y, b.x, b.y = 10.0, 50.0, 100.0, 50.0
        engine.aim("a", _angle(a, b))
        shots = 0
        while b.alive and shots < 10:
            engine.shoot("a")
            shots += 1
        assert not b.alive
        assert a.kills == 1 and b.deaths == 1
        for _ in range(40):
            engine.advance_tick()
        assert b.alive and b.health == 100

    def test_reload(self):
        engine, a, _ = self.make_engine()
        a.ammo = 0
        assert engine.reload("a") == DEFAULT_WEAPON.magazine

    def test_unknown_player_rejected(self):
        engine, _, _ = self.make_engine()
        with pytest.raises(KeyError):
            engine.move("ghost", 1, 0)

    def test_engine_determinism(self):
        def play():
            state = GameState(game_map=GameMap(walls=()))
            engine = GameEngine(state)
            a, b = engine.join("a"), engine.join("b")
            for i in range(50):
                engine.move("a", 1.0, 0.5)
                engine.aim("a", _angle(a, b))
                engine.shoot("a")
                engine.advance_tick()
            return state.to_dict()

        assert play() == play()


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        packet = {"type": "commands", "player": "a", "commands": []}
        assert decode_packet(encode_packet(packet)) == packet

    def test_decode_rejects_garbage(self):
        with pytest.raises(GuestError):
            decode_packet(b"\xff\xfe")
        with pytest.raises(GuestError):
            decode_packet(b'{"no_type": 1}')

    def test_canonical_encoding(self):
        a = encode_packet({"type": "x", "b": 1, "a": 2})
        b = encode_packet({"a": 2, "b": 1, "type": "x"})
        assert a == b

    def test_parse_keyboard_commands(self):
        assert parse_keyboard_command("move 1 0")["action"] == "move"
        assert parse_keyboard_command("aim 1.5")["angle"] == 1.5
        assert parse_keyboard_command("fire")["action"] == "fire"
        assert parse_keyboard_command("reload")["action"] == "reload"
        assert parse_keyboard_command("dance") is None
        assert parse_keyboard_command("move x y") is None
        assert parse_keyboard_command("") is None

    def test_game_packets_are_small(self):
        # Counterstrike-like command packets are tiny (Section 6.7).
        packet = commands_packet("p1", 10, [{"action": "fire"}])
        assert len(packet) < 150


def run_client(settings=None, cheated_class=None, events=()):
    """Run a client guest in a bare VM and return (guest, outputs per event)."""
    settings = settings or ClientSettings(player_id="p1", server="srv")
    guest_class = cheated_class or GameClientGuest
    image = VMImage(name="client", guest_factory=lambda: guest_class(settings))
    vm = VirtualMachine(image, nondet_source=FixedNondeterminismSource(default=1.0))
    outputs = [vm.start()]
    for event in events:
        outputs.append(vm.deliver_event(event))
    return vm.guest, outputs


def server_snapshot_event(players, message_id="snap-1"):
    """Build a snapshot PacketDelivery the client can consume."""
    state = GameState(game_map=GameMap(walls=()))
    for pid, (x, y) in players.items():
        player = state.add_player(pid)
        player.x, player.y = x, y
    return PacketDelivery(source="srv", payload=snapshot_packet(state.to_dict(), 1),
                          message_id=message_id)


class TestClientGuest:
    def test_sends_join_on_start(self):
        guest, outputs = run_client()
        packets = [o for o in outputs[0] if hasattr(o, "payload")]
        assert decode_packet(packets[0].payload)["type"] == "join"

    def test_fire_blocked_without_ammo(self):
        class StubApi:
            def consume_cycles(self, cycles):
                pass

        # A fresh client has ammunition, so firing is queued...
        guest_with_ammo, _ = run_client(events=[KeyboardInput(command="fire")])
        assert guest_with_ammo.pending_commands
        # ...but with an empty magazine the fire command is suppressed — the
        # behaviour that makes "more shots than ammo" a class-2 inconsistency.
        empty = GameClientGuest(ClientSettings(player_id="p1", server="srv"))
        empty.local_ammo = 0
        empty._on_keyboard(StubApi(), KeyboardInput(command="fire"))
        assert empty.pending_commands == []

    def test_commands_sent_every_other_tick(self):
        events = [KeyboardInput(command="move 1 0"), TimerInterrupt(1), TimerInterrupt(2)]
        guest, outputs = run_client(events=events)
        all_packets = [decode_packet(o.payload) for batch in outputs for o in batch
                       if hasattr(o, "payload")]
        assert any(p["type"] == "commands" for p in all_packets)

    def test_snapshot_updates_local_view(self):
        event = server_snapshot_event({"p1": (10, 10), "p2": (20, 20)})
        guest, _ = run_client(events=[event])
        assert guest.joined
        assert "p2" in guest.last_snapshot["players"]

    def test_visible_players_respects_walls(self):
        state = GameState(game_map=GameMap(walls=(Wall(40, 0, 60, 100),)))
        for pid, (x, y) in {"p1": (10, 50), "p2": (90, 50)}.items():
            player = state.add_player(pid)
            player.x, player.y = x, y
        event = PacketDelivery(source="srv",
                               payload=snapshot_packet(state.to_dict(), 1),
                               message_id="snap")
        guest, _ = run_client(events=[event])
        assert guest.hook_visible_players() == []

    def test_state_roundtrip(self):
        guest, _ = run_client(events=[KeyboardInput(command="move 1 0"), TimerInterrupt(1)])
        other = GameClientGuest(ClientSettings(player_id="p1", server="srv"))
        other.set_state(guest.get_state())
        assert other.get_state() == guest.get_state()

    def test_frame_cap_busy_waits(self):
        capped = ClientSettings(player_id="p1", server="srv", frame_cap_fps=50.0)
        guest, _ = run_client(settings=capped,
                              events=[TimerInterrupt(1), TimerInterrupt(2)])
        uncapped_guest, _ = run_client(events=[TimerInterrupt(1), TimerInterrupt(2)])
        # The capped client reads the clock far more often (busy-wait loop).
        assert len(guest.get_state()) == len(uncapped_guest.get_state())


class TestServerGuest:
    def run_server(self, events):
        image = make_server_image()
        vm = VirtualMachine(image, nondet_source=FixedNondeterminismSource(default=1.0))
        outputs = [vm.start()]
        for event in events:
            outputs.append(vm.deliver_event(event))
        return vm.guest, outputs

    def test_join_adds_player_and_replies(self):
        join = PacketDelivery(source="player1", payload=join_packet("player1"),
                              message_id="j1")
        guest, outputs = self.run_server([join])
        assert "player1" in guest.state.players
        replies = [o for o in outputs[1] if hasattr(o, "payload")]
        assert decode_packet(replies[0].payload)["type"] == "snapshot"

    def test_commands_applied_on_tick(self):
        join = PacketDelivery(source="player1", payload=join_packet("player1"),
                              message_id="j1")
        move = PacketDelivery(
            source="player1",
            payload=commands_packet("player1", 1, [{"action": "move", "dx": 1.0, "dy": 0.0}]),
            message_id="c1")
        guest, _ = self.run_server([join, move, TimerInterrupt(1)])
        player = guest.state.players["player1"]
        assert player.x != GameMap.default_arena().spawn_for(0)[0] or \
            player.y != GameMap.default_arena().spawn_for(0)[1] or player.x > 0

    def test_updates_broadcast_every_n_ticks(self):
        join = PacketDelivery(source="player1", payload=join_packet("player1"),
                              message_id="j1")
        events = [join] + [TimerInterrupt(i) for i in range(1, 7)]
        guest, outputs = self.run_server(events)
        updates = [o for batch in outputs for o in batch if hasattr(o, "payload")
                   and decode_packet(o.payload)["type"] in ("snapshot", "delta")]
        assert len(updates) >= 2
        # Per-tick updates are small, like the real game's packets (Section 6.7).
        deltas = [o for batch in outputs for o in batch if hasattr(o, "payload")
                  and decode_packet(o.payload)["type"] == "delta"]
        assert deltas and all(len(d.payload) < 400 for d in deltas)

    def test_server_state_roundtrip(self):
        join = PacketDelivery(source="player1", payload=join_packet("player1"),
                              message_id="j1")
        guest, _ = self.run_server([join, TimerInterrupt(1)])
        other = GameServerGuest()
        other.set_state(guest.get_state())
        assert other.get_state() == guest.get_state()


class TestCheats:
    def test_catalog_matches_table1(self):
        summary = catalog_summary()
        assert summary.total == 26
        assert summary.detectable == 26
        assert summary.detectable_this_implementation_only == 22
        assert summary.detectable_any_implementation == 4
        assert summary.not_detectable == 0

    def test_class2_cheats_are_the_memory_state_ones(self):
        class2 = {s.name for s in CHEAT_CATALOG if s.detectable_in_any_implementation}
        assert class2 == {"unlimited-ammo", "unlimited-health", "teleport", "rapid-fire"}

    def test_implemented_cheats_reference_catalog(self):
        names = {s.name for s in CHEAT_CATALOG}
        for cheat in implemented_cheats():
            assert cheat.spec_name in names

    def test_cheat_image_differs_from_reference(self):
        settings = ClientSettings(player_id="p1", server="srv")
        reference = make_client_image(settings)
        for cheat in implemented_cheats():
            assert cheat.patch_image(settings).image_hash() != reference.image_hash(), \
                cheat.spec_name

    def test_unlimited_ammo_fires_when_empty(self):
        settings = ClientSettings(player_id="p1", server="srv")
        cheated = UnlimitedAmmoCheat().patch_image(settings).instantiate()
        cheated.local_ammo = 0
        assert cheated.hook_allow_fire()
        honest = make_client_image(settings).instantiate()
        honest.local_ammo = 0
        assert not honest.hook_allow_fire()

    def test_wallhack_sees_through_walls(self):
        settings = ClientSettings(player_id="p1", server="srv")
        state = GameState(game_map=GameMap(walls=(Wall(40, 0, 60, 100),)))
        for pid, (x, y) in {"p1": (10, 50), "p2": (90, 50)}.items():
            player = state.add_player(pid)
            player.x, player.y = x, y
        snapshot = state.to_dict()
        honest = make_client_image(settings).instantiate()
        honest.last_snapshot = snapshot
        cheated = WallhackCheat().patch_image(settings).instantiate()
        cheated.last_snapshot = snapshot
        assert honest.hook_visible_players() == []
        assert cheated.hook_visible_players() == ["p2"]

    def test_speedhack_scales_moves(self):
        settings = ClientSettings(player_id="p1", server="srv")
        cheated = SpeedHackCheat().patch_image(settings).instantiate()
        assert cheated.hook_move_scale() > 1.0

    def test_aimbot_injects_aim_commands(self):
        settings = ClientSettings(player_id="p1", server="srv")
        cheated = AimbotCheat().patch_image(settings).instantiate()
        state = GameState(game_map=GameMap(walls=()))
        for pid, (x, y) in {"p1": (0, 0), "p2": (10, 10)}.items():
            player = state.add_player(pid)
            player.x, player.y = x, y
        cheated.last_snapshot = state.to_dict()
        transformed = cheated.hook_transform_commands([{"action": "fire"}])
        assert transformed[0]["action"] == "aim"
        assert transformed[0]["angle"] == pytest.approx(math.pi / 4, rel=1e-3)
        assert transformed[1]["action"] == "fire"
