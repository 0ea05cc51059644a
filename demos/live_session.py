"""A live TCP session against the wire protocol, end to end in one process.

Starts the server on an ephemeral port, creates an activity, and walks two
clients through the whole flow: hello, poll for the invitation, accept,
arm, and a drive into the fence that pushes an arrival notice to the
waiting participant. Every frame on the wire is printed as it happens.

Run:  python demos/live_session.py
"""

import asyncio
import math

from syncpoint.activities import ActivityKind, ActivitySpec, InviteAnswer, TimeWindow
from syncpoint.engine import Engine
from syncpoint.geo import EARTH_RADIUS_M, Geofence, GeoPoint
from syncpoint.net import SyncServer
from syncpoint.wire import Arm, Fix, Hello, Poll, RespondInvite, Status, encode

CENTER = GeoPoint(41.551, -8.428)
CLOCK = {"t": 100}


def at_distance(meters: float) -> GeoPoint:
    return GeoPoint(CENTER.lat + math.degrees(meters / EARTH_RADIUS_M), CENTER.lon)


class Shell:
    def __init__(self, name: str):
        self.name = name

    async def connect(self, port: int):
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        return self

    async def send(self, msg):
        print(f"{self.name} -> {encode(msg).rstrip()}")
        self.writer.write(encode(msg).encode())
        await self.writer.drain()

    async def recv(self, n: int = 1):
        for _ in range(n):
            line = await asyncio.wait_for(self.reader.readline(), timeout=5)
            print(f"{self.name} <- {line.decode().rstrip()}")


async def main():
    engine = Engine()
    server = await SyncServer(engine, clock=lambda: CLOCK["t"]).start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    act, _ = engine.create_activity(ActivitySpec(
        title="Ride to work", kind=ActivityKind.PICKUP,
        window=TimeWindow(1000, 9000), fence=Geofence(CENTER, 500.0),
        organizer="rider", participants=("rider", "driver"),
    ), now=0)
    print(f"server on port {port}, activity {act.id}\n")

    rider = await Shell("rider ").connect(port)
    driver = await Shell("driver").connect(port)

    await rider.send(Hello("rider"))
    await rider.recv()
    await driver.send(Hello("driver"))
    await driver.recv()

    await driver.send(Poll(0))      # fetch the queued invitation
    await driver.recv(2)            # Notify(INVITATION) + Ack(POLL)

    for shell, name in ((rider, "rider"), (driver, "driver")):
        await shell.send(RespondInvite(act.id, InviteAnswer.ACCEPT))
        await shell.recv()

    await driver.send(Arm(act.id))
    await driver.recv()

    print("\ndriver approaches: 2000 m, 800 m, then 300 m from the pick-up point")
    CLOCK["t"] = 2000
    for i, d in enumerate((2000.0, 800.0, 300.0)):
        await driver.send(Fix(act.id, at_distance(d), 2000 + i))
        await driver.recv(2 if d <= 500 else 1)  # Ack, then self-ack on entry
    await rider.recv()  # the pushed arrival notice

    await rider.send(Status(act.id))
    await rider.recv()

    rider.writer.close()
    driver.writer.close()
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(main())
